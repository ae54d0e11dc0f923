"""Byte ranges as integer pairs.

Every layer of the stack talks about *non-contiguous sets of byte ranges in a
flat file*: the MPI-I/O layer produces them by flattening derived datatypes,
the versioning backend stores them as chunk descriptors, and the lock
manager locks them.  As in the List I/O interface the paper's storage API
mirrors, and as ROMIO keeps a flattened access, they are plain integer
pairs, in one of two forms with one name each:

* :data:`Extents` — ``(offset, size)`` pairs: a vector's requests in call
  order, a datatype's type map, what a collective describes;
* :data:`Runs` — half-open ``(start, end)`` pairs, *canonical* when sorted,
  disjoint and non-adjacent: the form the set operations below work on
  (lock extents, a read walk's wanted bytes, the collective exchange).

:class:`Region` is a bare record of one range, for callers that read its
fields by name; it has no algebra.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, List, Sequence, Tuple

from repro.errors import InvalidRegion


#: ``(offset, size)`` pairs
Extents = Sequence[Tuple[int, int]]

#: half-open ``(start, end)`` pairs; canonical when sorted, disjoint and
#: non-adjacent
Runs = Sequence[Tuple[int, int]]


def coalesce_runs(pairs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Coalesce non-empty ``(start, end)`` pairs into canonical runs.

    The pairs are sorted in place; overlapping *and* adjacent intervals
    merge.  The result is sorted, disjoint and non-adjacent.
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
    """The canonical runs of ``(offset, size)`` extents given in any order
    (empty extents dropped)."""
    return coalesce_runs([(offset, offset + size)
                          for offset, size in extents if size])


def clip_runs(runs: Runs, start: int, end: int) -> List[Tuple[int, int]]:
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


def runs_overlap(a: Runs, b: Runs) -> bool:
    """True if two canonical run lists share a byte: one merge of both,
    stopping at the first common byte."""
    i = j = 0
    while i < len(a) and j < len(b):
        a_start, a_end = a[i]
        b_start, b_end = b[j]
        if a_start < b_end and b_start < a_end:
            return True
        if a_end <= b_end:
            i += 1
        else:
            j += 1
    return False


@dataclass(slots=True, unsafe_hash=True, order=True)
class Region:
    """A half-open byte interval ``[offset, offset + size)`` in a flat file.

    Slotted rather than frozen, and immutable by convention: frozen
    construction (every field stored through ``object.__setattr__``)
    measured about 2.5x slower.
    """

    offset: int
    size: int
    #: first byte *after* the region; stored in ``__post_init__``
    end: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise InvalidRegion(f"negative offset: {self.offset}")
        if self.size < 0:
            raise InvalidRegion(f"negative size: {self.size}")
        self.end = self.offset + self.size
