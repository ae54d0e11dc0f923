"""Flattening MPI file views into byte regions.

An MPI file view is ``(displacement, etype, filetype)``: starting at
``displacement``, the file is tiled with repetitions of ``filetype``; only
the bytes belonging to the filetype's type map are *accessible*, and offsets
passed to ``write_at`` / ``read_at`` count in ``etype`` units *within the
accessible bytes*.  Data read or written fills accessible bytes in order.

An access — "``nbytes`` at etype-offset ``offset`` under this view" — is
flattened once into the absolute byte ranges it touches, as canonical
``(offset, size)`` runs (ROMIO keeps flattened accesses as plain offset /
length lists too, one entry per contiguous piece).  The write and read
vectors every ADIO driver consumes are built straight from those runs;
:func:`flatten_view_access` offers them as a :class:`RegionList`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.listio import IOVector, frozen
from repro.core.regions import RegionList
from repro.errors import MPIIOError
from repro.mpi.datatypes import BYTE, Datatype


class _Access:
    """One flattened access: its ``(offset, nbytes)``, its canonical
    ``(offset, size)`` runs in file order (the order the data fills them)
    and, once asked for, the same runs as a :class:`RegionList` and as a
    read vector."""

    __slots__ = ("key", "runs", "regions", "read_vector")

    def __init__(self, key: Tuple[int, int], runs: List[Tuple[int, int]]):
        self.key = key
        self.runs = runs
        self.regions: Optional[RegionList] = None
        self.read_vector: Optional[IOVector] = None


@dataclass
class FileView:
    """One rank's file view."""

    displacement: int = 0
    etype: Datatype = BYTE
    filetype: Datatype = field(default_factory=lambda: BYTE)
    #: the last access flattened under this view: a restart reads back
    #: through the view the dump was written through.  ``set_view``
    #: installs a new object, which drops it.
    _last_access: Optional[_Access] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.displacement < 0:
            raise MPIIOError(f"negative view displacement {self.displacement}")
        if self.filetype.size == 0:
            raise MPIIOError("filetype with zero data bytes cannot be accessed")
        if self.etype.size == 0:
            raise MPIIOError("etype must have a non-zero size")
        if self.filetype.size % self.etype.size != 0:
            raise MPIIOError(
                "filetype size must be a multiple of the etype size "
                f"({self.filetype.size} vs {self.etype.size})")


def flatten_view_access(view: FileView, offset_etypes: int,
                        nbytes: int) -> RegionList:
    """Absolute byte regions of an ``nbytes`` access at ``offset_etypes``.

    ``offset_etypes`` is the offset in etype units into the *accessible*
    bytes of the view (MPI's explicit-offset addressing).
    """
    access = _access(view, offset_etypes, nbytes)
    if access is None:
        return RegionList()
    if access.regions is None:
        access.regions = RegionList(access.runs)
    return access.regions


def _access(view: FileView, offset_etypes: int,
            nbytes: int) -> Optional[_Access]:
    """The flattened access, remembered on the view; ``None`` when empty."""
    if offset_etypes < 0:
        raise MPIIOError(f"negative access offset {offset_etypes}")
    if nbytes < 0:
        raise MPIIOError(f"negative access size {nbytes}")
    if nbytes == 0:
        return None
    key = (offset_etypes, nbytes)
    last = view._last_access
    if last is None or last.key != key:
        last = view._last_access = _Access(
            key, _flatten(view, offset_etypes, nbytes))
    return last


def _flatten(view: FileView, offset_etypes: int,
             nbytes: int) -> List[Tuple[int, int]]:
    """The runs of a valid, non-empty access (uncached)."""
    skip_bytes = offset_etypes * view.etype.size
    tile_regions = view.filetype.flatten()
    tile_data_bytes = view.filetype.size
    tile_extent = view.filetype.extent

    # fast path: a dense filetype (every byte of its extent is accessible)
    # makes the whole view contiguous, so the access is a single run —
    # avoids iterating tile by tile for plain byte-stream views
    if (len(tile_regions) == 1 and tile_regions[0].offset == 0
            and tile_regions[0].size == tile_data_bytes == tile_extent):
        return [(view.displacement + skip_bytes, nbytes)]

    tile = [(region.offset, region.size) for region in tile_regions]
    # skip whole tiles first
    tile_index = skip_bytes // tile_data_bytes
    skip_in_tile = skip_bytes % tile_data_bytes

    # a tile's regions are canonical and tiles follow each other, so the
    # pieces come out in file order; only a piece touching the previous
    # one (across a tile seam) merges into it
    runs: List[Tuple[int, int]] = []
    run_start = run_end = -1
    remaining = nbytes
    while remaining > 0:
        tile_origin = view.displacement + tile_index * tile_extent
        for offset, size in tile:
            if skip_in_tile >= size:
                skip_in_tile -= size
                continue
            start = tile_origin + offset + skip_in_tile
            take = min(size - skip_in_tile, remaining)
            skip_in_tile = 0
            if start == run_end:
                run_end += take
            else:
                if run_end > run_start:
                    runs.append((run_start, run_end - run_start))
                run_start, run_end = start, start + take
            remaining -= take
            if remaining <= 0:
                break
        tile_index += 1
        skip_in_tile = 0
    runs.append((run_start, run_end - run_start))
    return runs


def build_write_vector(view: FileView, offset_etypes: int,
                       data: bytes) -> IOVector:
    """Scatter ``data`` over the view's accessible bytes as a write vector.

    The requests carry ``data`` itself (one run) or read-only views of it,
    never copies of its bytes; a mutable ``data`` is frozen first, once
    (:func:`~repro.core.listio.frozen`).
    """
    access = _access(view, offset_etypes, len(data))
    if access is None:
        return IOVector()
    runs = access.runs
    if len(runs) == 1:
        return IOVector.for_write([(runs[0][0], data)])
    payload = memoryview(frozen(data))
    pairs: List[Tuple[int, memoryview]] = []
    cursor = 0
    for offset, size in runs:
        pairs.append((offset, payload[cursor:cursor + size]))
        cursor += size
    return IOVector.for_write(pairs)


def build_read_vector(view: FileView, offset_etypes: int,
                      nbytes: int) -> IOVector:
    """The read vector of an ``nbytes`` access under the view (the same
    object for a repeated access: a vector is immutable)."""
    access = _access(view, offset_etypes, nbytes)
    if access is None:
        return IOVector()
    if access.read_vector is None:
        access.read_vector = IOVector.for_read(access.runs)
    return access.read_vector
