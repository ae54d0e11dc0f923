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
from typing import Dict, List, Tuple

from repro.core.regions import Extents, Runs, coalesce_runs
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
    def map_extent(self, offset: int, size: int) -> List[StripePiece]:
        """Split the file bytes ``[offset, offset + size)`` into per-OST
        object pieces, one per stripe touched, in file order."""
        stripe_size, count = self.stripe_size, self.ost_count
        pieces: List[StripePiece] = []
        cursor, end = offset, offset + size
        while cursor < end:
            stripe = cursor // stripe_size
            piece_end = min((stripe + 1) * stripe_size, end)
            pieces.append(StripePiece(
                ost_index=stripe % count,
                object_offset=(stripe // count) * stripe_size
                + cursor % stripe_size,
                length=piece_end - cursor,
                file_offset=cursor,
            ))
            cursor = piece_end
        return pieces

    def object_extents(self, extents: Extents) -> Dict[int, Runs]:
        """Per touched OST, the canonical object runs the ``(offset, size)``
        file ``extents`` (any order) cover.  Two sets of file ranges overlap
        exactly when their object runs overlap on some OST."""
        size, count = self.stripe_size, self.ost_count
        per_ost: Dict[int, List[Tuple[int, int]]] = {}
        for offset, length in extents:
            if not length:
                continue
            last_byte = offset + length - 1
            first, last = offset // size, last_byte // size
            # the extent's first stripe on each OST it touches
            for stripe in range(first, min(last, first + count - 1) + 1):
                final = last - (last - stripe) % count  # ... and its last
                start = (stripe // count) * size
                if stripe == first:
                    start += offset % size
                end = (final // count) * size \
                    + (last_byte % size + 1 if final == last else size)
                per_ost.setdefault(stripe % count, []).append((start, end))
        return {ost_index: coalesce_runs(runs)
                for ost_index, runs in per_ost.items()}
