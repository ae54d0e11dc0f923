"""Striping layout: mapping file byte ranges onto object storage targets.

A file with stripe size ``s`` over ``n`` OSTs places byte
``offset`` in stripe ``offset // s``; stripe ``k`` lives on OST
``k % n`` at object offset ``(k // n) * s + (offset % s)`` — the classic
RAID-0 / Lustre layout.  The map is a bijection between file bytes and
(OST, object offset) pairs, and the stripes a contiguous file range puts on
one OST are consecutive in its object: the range is *one* contiguous object
extent per OST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.core.regions import Region, RegionList
from repro.errors import InvalidRegion


@dataclass(slots=True, unsafe_hash=True)
class StripePiece:
    """One stripe-aligned piece of a file byte range."""

    ost_index: int
    object_offset: int
    length: int
    file_offset: int


@dataclass(slots=True, unsafe_hash=True)
class StripeLayout:
    """Striping parameters of one file."""

    stripe_size: int
    ost_count: int

    def __post_init__(self) -> None:
        if self.stripe_size <= 0:
            raise InvalidRegion(f"stripe_size must be positive, got {self.stripe_size}")
        if self.ost_count <= 0:
            raise InvalidRegion(f"ost_count must be positive, got {self.ost_count}")

    # ------------------------------------------------------------------
    def map_region(self, region: Region) -> List[StripePiece]:
        """Split a file byte range into per-OST object pieces."""
        pieces: List[StripePiece] = []
        for part in region.chunk_aligned_pieces(self.stripe_size):
            stripe_index = part.offset // self.stripe_size
            ost_index = stripe_index % self.ost_count
            object_offset = ((stripe_index // self.ost_count) * self.stripe_size
                             + part.offset % self.stripe_size)
            pieces.append(StripePiece(
                ost_index=ost_index,
                object_offset=object_offset,
                length=part.size,
                file_offset=part.offset,
            ))
        return pieces

    def map_regions(self, regions: RegionList) -> List[StripePiece]:
        """Map every region of a list (construction order preserved)."""
        pieces: List[StripePiece] = []
        for region in regions:
            pieces.extend(self.map_region(region))
        return pieces

    def object_extents(self, regions: Iterable[Region]) -> Dict[int, RegionList]:
        """Per touched OST, the object byte ranges ``regions`` cover
        (normalized).  Two sets of file ranges overlap exactly when their
        object extents overlap on some OST."""
        size, count = self.stripe_size, self.ost_count
        per_ost: Dict[int, List[Region]] = {}
        for region in regions:
            if region.empty:
                continue
            first, last = region.offset // size, (region.end - 1) // size
            # the region's first stripe on each OST it touches
            for stripe in range(first, min(last, first + count - 1) + 1):
                final = last - (last - stripe) % count  # ... and its last
                start = (stripe // count) * size
                if stripe == first:
                    start += region.offset % size
                end = (final // count) * size \
                    + ((region.end - 1) % size + 1 if final == last else size)
                per_ost.setdefault(stripe % count, []).append(
                    Region(start, end - start))
        return {ost_index: RegionList(extents).normalized()
                for ost_index, extents in per_ost.items()}

    def osts_for_region(self, region: Region) -> List[int]:
        """Sorted list of distinct OST indices a byte range touches."""
        return sorted({piece.ost_index for piece in self.map_region(region)})

    def osts_for_regions(self, regions: RegionList) -> List[int]:
        """Sorted list of distinct OST indices a set of byte ranges touches."""
        indices = set()
        for region in regions:
            indices.update(self.osts_for_region(region))
        return sorted(indices)
