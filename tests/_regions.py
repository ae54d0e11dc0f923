"""Byte-region set algebra that only the tests need.

The code under ``src/`` works on integer pairs (:mod:`repro.core.regions`);
the suites still state coverage, holes and overlaps over whole region sets,
as a reference the pair forms are compared against.  That algebra lives
here, over the bare :class:`~repro.core.regions.Region` record: a
:class:`RegionList` with normalization, intersection and overlap, a union
and a difference of region sets, and the few per-region operations the
references use.  Import from here in tests.
"""

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.regions import Region, canonical_runs, coalesce_runs
from repro.errors import InvalidRegion

__all__ = ["Region", "RegionList", "canonical_runs", "region_intersect",
           "region_minus", "region_overlaps", "region_pieces",
           "regions_minus", "regions_union"]


def region_overlaps(a: Region, b: Region) -> bool:
    """True if the two regions share at least one byte."""
    return bool(a.size and b.size and a.offset < b.end and b.offset < a.end)


def region_intersect(a: Region, b: Region) -> Region:
    """The overlapping part (empty, anchored at the overlap start, when
    there is none)."""
    start = max(a.offset, b.offset)
    end = min(a.end, b.end)
    return Region(start, max(0, end - start))


def region_pieces(region: Region, chunk_size: int) -> Tuple[Region, ...]:
    """``region`` split at every multiple of ``chunk_size``."""
    if chunk_size <= 0:
        raise InvalidRegion(f"chunk_size must be positive, got {chunk_size}")
    pieces: List[Region] = []
    cursor = region.offset
    while cursor < region.end:
        piece_end = min((cursor // chunk_size + 1) * chunk_size, region.end)
        pieces.append(Region(cursor, piece_end - cursor))
        cursor = piece_end
    return tuple(pieces)


def region_minus(region: Region, cut: Region) -> Tuple[Region, ...]:
    """The parts of ``region`` not covered by ``cut`` (0, 1 or 2 pieces)."""
    if not region_overlaps(region, cut):
        return (region,) if region.size else ()
    pieces: List[Region] = []
    if region.offset < cut.offset:
        pieces.append(Region(region.offset, cut.offset - region.offset))
    if cut.end < region.end:
        pieces.append(Region(cut.end, region.end - cut.end))
    return tuple(pieces)


class RegionList:
    """An immutable ordered list of byte regions with set-like operations.

    The constructor accepts regions (or ``(offset, size)`` pairs) in any
    order, possibly overlapping or adjacent; :meth:`normalized` returns the
    canonical form (sorted by offset, overlapping/adjacent regions
    coalesced, empties dropped), memoized.
    """

    __slots__ = ("_regions", "_normalized")

    def __init__(self, regions: Iterable = ()):
        self._regions: Tuple[Region, ...] = tuple(
            region if isinstance(region, Region)
            else Region(int(region[0]), int(region[1]))
            for region in regions)
        self._normalized: Optional["RegionList"] = None

    @classmethod
    def _from_normalized(cls, regions: Sequence[Region]) -> "RegionList":
        """Wrap regions already known to be in canonical form."""
        instance = cls(regions)
        instance._normalized = instance
        return instance

    # container protocol
    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    def __len__(self) -> int:
        return len(self._regions)

    def __getitem__(self, index: int) -> Region:
        return self._regions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegionList):
            return NotImplemented
        return self._regions == other._regions

    def __hash__(self) -> int:
        return hash(self._regions)

    def __repr__(self) -> str:
        inner = ", ".join(f"({r.offset}, {r.size})" for r in self._regions)
        return f"RegionList([{inner}])"

    # derived quantities
    @property
    def regions(self) -> Tuple[Region, ...]:
        """The underlying tuple of regions (in construction order)."""
        return self._regions

    def as_tuples(self) -> List[Tuple[int, int]]:
        """``[(offset, size), ...]`` form (construction order)."""
        return [(region.offset, region.size) for region in self._regions]

    def total_bytes(self) -> int:
        """Sum of region sizes (overlapping bytes counted multiple times)."""
        return sum(region.size for region in self._regions)

    def covered_bytes(self) -> int:
        """Number of distinct bytes covered (overlaps counted once)."""
        return self.normalized().total_bytes()

    def is_normalized(self) -> bool:
        """True if sorted, non-overlapping, non-adjacent, and without empties."""
        previous_end = None
        for region in self._regions:
            if not region.size or (previous_end is not None
                                   and region.offset <= previous_end):
                return False
            previous_end = region.end
        return True

    # algebra
    def normalized(self) -> "RegionList":
        """Canonical form: sorted, coalesced, empties removed (memoized)."""
        if self._normalized is None:
            if self.is_normalized():
                self._normalized = self
            else:
                self._normalized = RegionList._from_normalized(
                    [Region(start, end - start) for start, end in
                     coalesce_runs([(r.offset, r.end)
                                    for r in self._regions if r.size])])
        return self._normalized

    def intersection(self, other: "RegionList") -> "RegionList":
        """Normalized set of bytes present in both region sets."""
        a = self.normalized()._regions
        b = other.normalized()._regions
        result: List[Region] = []
        i = j = 0
        while i < len(a) and j < len(b):
            start = max(a[i].offset, b[j].offset)
            end = min(a[i].end, b[j].end)
            if end > start:
                result.append(Region(start, end - start))
            if a[i].end <= b[j].end:
                i += 1
            else:
                j += 1
        return RegionList._from_normalized(result)

    def overlaps(self, other: "RegionList") -> bool:
        """True if any byte is covered by both region sets."""
        return len(self.intersection(other)) > 0


def regions_union(a: RegionList, b: RegionList) -> RegionList:
    """Normalized union of both region sets."""
    return RegionList([*a, *b]).normalized()


def regions_minus(a: RegionList, b: RegionList) -> RegionList:
    """Normalized set of bytes in ``a`` but not in ``b``: one sweep of each
    kept region over the cuts that can reach it."""
    cuts = b.normalized().regions
    kept: List[Region] = []
    first = 0
    for region in a.normalized():
        cursor, end = region.offset, region.end
        while first < len(cuts) and cuts[first].end <= cursor:
            first += 1
        for cut in cuts[first:]:
            if cut.offset >= end:
                break
            if cut.offset > cursor:
                kept.append(Region(cursor, cut.offset - cursor))
            cursor = max(cursor, cut.end)
        if cursor < end:
            kept.append(Region(cursor, end - cursor))
    return RegionList(kept).normalized()
