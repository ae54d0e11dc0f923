"""Byte-region algebra.

Every layer of the stack talks about *non-contiguous sets of byte ranges in a
flat file*: the MPI-I/O layer produces them by flattening derived datatypes,
the versioning backend stores them as chunk descriptors, and the lock
manager locks them.  This module provides the two value types used
everywhere:

* :class:`Region` — a half-open byte interval ``[offset, offset + size)``;
* :class:`RegionList` — an ordered collection of regions with the set
  operations the stack uses (normalization, intersection, overlap, gaps,
  covering extent).

Both types are immutable by convention, so they can be hashed, shared
between simulated processes, and used as dictionary keys without defensive
copies.  :class:`Region` is a slotted dataclass rather than a frozen one:
the per-piece paths build tens of thousands of them per run, and frozen
construction (every field stored through ``object.__setattr__``) measured
about 2.5x slower.  Nothing assigns to a region's fields after construction.

Where one object per block is too many — the collective exchange handles
one 1 KiB block per rank per stripe — the same algebra runs on canonical
*runs*, sorted disjoint non-adjacent ``(start, end)`` integer pairs
(:func:`canonical_runs`, :func:`clip_runs`, :func:`coalesce_runs`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidRegion


#: marker in :attr:`RegionList._normalized` for a list that is its own
#: canonical form (a self-reference would make every canonical list a
#: reference cycle only the cyclic GC frees)
_CANONICAL = object()


def coalesce_runs(pairs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Coalesce non-empty ``(start, end)`` pairs into canonical runs.

    The pairs are sorted in place; overlapping *and* adjacent intervals
    merge, as :meth:`RegionList.normalized` merges regions.
    The result is sorted, disjoint and non-adjacent — the plain-integer form
    of a normalized :class:`RegionList`, which the collective paths carry
    instead of one :class:`Region` per block.
    """
    if not pairs:
        return []
    pairs.sort()
    merged: List[Tuple[int, int]] = []
    run_start, run_end = pairs[0]
    for start, end in pairs:
        if start > run_end:
            merged.append((run_start, run_end))
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    merged.append((run_start, run_end))
    return merged


def canonical_runs(extents: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The canonical ``(start, end)`` runs of ``(offset, size)`` extents
    given in any order (empty extents dropped)."""
    return coalesce_runs([(offset, offset + size)
                          for offset, size in extents if size])


def clip_runs(runs: Sequence[Tuple[int, int]], start: int,
              end: int) -> List[Tuple[int, int]]:
    """Canonical ``runs`` clipped to ``[start, end)``, still canonical.

    A bisect finds the first run that can reach past ``start``; runs fully
    inside the bounds are reused, only the (at most two) boundary runs are
    clamped.
    """
    if end <= start:
        return []
    index = bisect_left(runs, (start,))
    if index and runs[index - 1][1] > start:
        index -= 1
    clipped: List[Tuple[int, int]] = []
    for run in islice(runs, index, None):
        run_start, run_end = run
        if run_start >= end:
            break
        if run_start < start or run_end > end:
            run = (max(run_start, start), min(run_end, end))
        clipped.append(run)
    return clipped


def _coalesce(pairs: List[Tuple[int, int]]) -> List["Region"]:
    """:func:`coalesce_runs` as canonical Regions."""
    return [Region(start, end - start) for start, end in coalesce_runs(pairs)]


@dataclass(slots=True, unsafe_hash=True, order=True)
class Region:
    """A half-open byte interval ``[offset, offset + size)`` in a flat file."""

    offset: int
    size: int
    #: first byte *after* the region; stored in ``__post_init__`` (not a
    #: property: it is read on every algebra step)
    end: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise InvalidRegion(f"negative offset: {self.offset}")
        if self.size < 0:
            raise InvalidRegion(f"negative size: {self.size}")
        self.end = self.offset + self.size

    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        """True for zero-length regions."""
        return self.size == 0

    def contains(self, offset: int) -> bool:
        """True if byte ``offset`` lies inside the region."""
        return self.offset <= offset < self.end

    def contains_region(self, other: "Region") -> bool:
        """True if ``other`` is entirely inside this region."""
        if other.empty:
            return self.offset <= other.offset <= self.end
        return self.offset <= other.offset and other.end <= self.end

    def overlaps(self, other: "Region") -> bool:
        """True if the two regions share at least one byte."""
        if self.empty or other.empty:
            return False
        return self.offset < other.end and other.offset < self.end

    def adjacent(self, other: "Region") -> bool:
        """True if the regions touch end-to-start (no gap, no overlap)."""
        return self.end == other.offset or other.end == self.offset

    def intersect(self, other: "Region") -> "Region":
        """The overlapping part (possibly empty, anchored at the overlap start)."""
        start = max(self.offset, other.offset)
        end = min(self.end, other.end)
        if end <= start:
            return Region(start if start >= 0 else 0, 0)
        return Region(start, end - start)

    def shift(self, delta: int) -> "Region":
        """A copy of the region moved by ``delta`` bytes."""
        return Region(self.offset + delta, self.size)

    def chunk_aligned_pieces(self, chunk_size: int) -> Tuple["Region", ...]:
        """Split the region at every multiple of ``chunk_size``.

        This is the decomposition used when striping a write across fixed-size
        chunks: each returned piece lies entirely within one chunk.
        """
        if chunk_size <= 0:
            raise InvalidRegion(f"chunk_size must be positive, got {chunk_size}")
        if self.empty:
            return ()
        pieces: List[Region] = []
        cursor = self.offset
        while cursor < self.end:
            boundary = ((cursor // chunk_size) + 1) * chunk_size
            piece_end = min(boundary, self.end)
            pieces.append(Region(cursor, piece_end - cursor))
            cursor = piece_end
        return tuple(pieces)

    def as_tuple(self) -> Tuple[int, int]:
        """``(offset, size)`` tuple form."""
        return (self.offset, self.size)

    def __repr__(self) -> str:
        return f"Region({self.offset}, {self.size})"


class RegionList:
    """An immutable ordered list of byte regions with set-like operations.

    The constructor accepts regions in any order, possibly overlapping or
    adjacent; :meth:`normalized` returns the canonical form (sorted by offset,
    overlapping/adjacent regions coalesced, empties dropped).  Most algebraic
    operations are defined on the normalized form.

    :meth:`normalized` is memoized on the instance (the type is immutable, so
    the canonical form can never change), and the algebraic operations below
    produce their results directly in canonical form via single-pass merges.
    :meth:`normalized` runs one plain-Python kernel whatever the list size,
    :func:`coalesce_runs`: sort the ``(start, end)`` pairs, then sweep them
    into canonical runs.
    """

    __slots__ = ("_regions", "_normalized")

    def __init__(self, regions: Iterable[Region | Tuple[int, int]] = ()):
        converted: List[Region] = []
        for region in regions:
            if isinstance(region, Region):
                converted.append(region)
            else:
                offset, size = region
                converted.append(Region(int(offset), int(size)))
        self._regions: Tuple[Region, ...] = tuple(converted)
        #: the canonical form once known: another list, or
        #: :data:`_CANONICAL` when this list is canonical itself
        self._normalized: Optional[object] = None

    @classmethod
    def _from_normalized(cls, regions: Sequence[Region]) -> "RegionList":
        """Wrap regions already known to be in canonical form (no re-check)."""
        instance = cls.__new__(cls)
        instance._regions = tuple(regions)
        instance._normalized = _CANONICAL
        return instance

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def regions(self) -> Tuple[Region, ...]:
        """The underlying tuple of regions (in construction order)."""
        return self._regions

    def total_bytes(self) -> int:
        """Sum of region sizes (overlapping bytes counted multiple times)."""
        return sum(region.size for region in self._regions)

    def covered_bytes(self) -> int:
        """Number of distinct bytes covered (overlaps counted once)."""
        return self.normalized().total_bytes()

    def covering_extent(self) -> Region:
        """Smallest contiguous region covering every listed region.

        This is exactly the range a POSIX-locking MPI-I/O driver must lock
        for a non-contiguous access (the paper's Section III observation).
        """
        non_empty = [region for region in self._regions if not region.empty]
        if not non_empty:
            return Region(0, 0)
        start = min(region.offset for region in non_empty)
        end = max(region.end for region in non_empty)
        return Region(start, end - start)

    def is_normalized(self) -> bool:
        """True if sorted, non-overlapping, non-adjacent, and without empties."""
        previous_end = None
        for region in self._regions:
            if region.empty:
                return False
            if previous_end is not None and region.offset <= previous_end:
                return False
            previous_end = region.end
        return True

    def is_contiguous(self) -> bool:
        """True if the normalized form is a single region (or empty)."""
        return len(self.normalized()) <= 1

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def normalized(self) -> "RegionList":
        """Canonical form: sorted, coalesced, empties removed (memoized)."""
        normalized = self._normalized
        if normalized is _CANONICAL:
            return self
        if normalized is not None:
            return normalized
        if self.is_normalized():
            self._normalized = _CANONICAL
            return self
        result = RegionList._from_normalized(
            _coalesce([(r.offset, r.end) for r in self._regions if r.size]))
        self._normalized = result
        return result

    def intersection(self, other: "RegionList") -> "RegionList":
        """Normalized set of bytes present in both region sets (linear merge)."""
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
        """True if any byte is covered by both region sets (early exit)."""
        a = self.normalized()._regions
        b = other.normalized()._regions
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i].offset < b[j].end and b[j].offset < a[i].end:
                return True
            if a[i].end <= b[j].end:
                i += 1
            else:
                j += 1
        return False

    def gaps(self) -> "RegionList":
        """Regions *between* the normalized regions (holes inside the extent)."""
        norm = self.normalized()._regions
        holes: List[Region] = []
        for left, right in zip(norm, norm[1:]):
            holes.append(Region(left.end, right.offset - left.end))
        return RegionList._from_normalized(holes)

    def shift(self, delta: int) -> "RegionList":
        """Every region moved by ``delta`` bytes (order preserved)."""
        return RegionList(region.shift(delta) for region in self._regions)

    def chunk_aligned(self, chunk_size: int) -> "RegionList":
        """Every region split on ``chunk_size`` boundaries (order preserved)."""
        pieces: List[Region] = []
        for region in self._regions:
            pieces.extend(region.chunk_aligned_pieces(chunk_size))
        return RegionList(pieces)

    def as_tuples(self) -> List[Tuple[int, int]]:
        """``[(offset, size), ...]`` form (construction order)."""
        return [region.as_tuple() for region in self._regions]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(cls, tuples: Sequence[Tuple[int, int]]) -> "RegionList":
        """Build from ``[(offset, size), ...]``."""
        return cls(Region(int(offset), int(size)) for offset, size in tuples)

    @classmethod
    def single(cls, offset: int, size: int) -> "RegionList":
        """A list holding one region."""
        return cls([Region(offset, size)])
