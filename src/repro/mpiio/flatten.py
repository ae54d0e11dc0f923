"""Flattening MPI file views into byte regions.

An MPI file view is ``(displacement, etype, filetype)``: starting at
``displacement``, the file is tiled with repetitions of ``filetype``; only
the bytes belonging to the filetype's type map are *accessible*, and offsets
passed to ``write_at`` / ``read_at`` count in ``etype`` units *within the
accessible bytes*.  Data read or written fills accessible bytes in order.

:func:`flatten_view_access` turns "access ``nbytes`` at etype-offset
``offset`` under this view" into the absolute byte regions touched — the
representation every ADIO driver consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.listio import IOVector
from repro.core.regions import Region, RegionList
from repro.errors import MPIIOError
from repro.mpi.datatypes import BYTE, Datatype


@dataclass
class FileView:
    """One rank's file view."""

    displacement: int = 0
    etype: Datatype = BYTE
    filetype: Datatype = field(default_factory=lambda: BYTE)
    #: the last ``(offset, nbytes)`` access flattened under this view, with
    #: its regions: a restart reads back through the view the dump was
    #: written through.  ``set_view`` installs a new object, which drops it.
    _last_access: Optional[Tuple[Tuple[int, int], RegionList]] = field(
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
    if offset_etypes < 0:
        raise MPIIOError(f"negative access offset {offset_etypes}")
    if nbytes < 0:
        raise MPIIOError(f"negative access size {nbytes}")
    if nbytes == 0:
        return RegionList()
    access = (offset_etypes, nbytes)
    if view._last_access is None or view._last_access[0] != access:
        view._last_access = (access, _flatten(view, offset_etypes, nbytes))
    return view._last_access[1]


def _flatten(view: FileView, offset_etypes: int, nbytes: int) -> RegionList:
    """The regions of a valid, non-empty access (uncached)."""
    skip_bytes = offset_etypes * view.etype.size
    tile_regions = view.filetype.flatten()
    tile_data_bytes = view.filetype.size
    tile_extent = view.filetype.extent

    # fast path: a dense filetype (every byte of its extent is accessible)
    # makes the whole view contiguous, so the access is a single region —
    # avoids iterating tile by tile for plain byte-stream views
    if (len(tile_regions) == 1 and tile_regions[0].offset == 0
            and tile_regions[0].size == tile_data_bytes == tile_extent):
        return RegionList([Region(view.displacement + skip_bytes, nbytes)])

    # skip whole tiles first
    tile_index = skip_bytes // tile_data_bytes
    skip_in_tile = skip_bytes % tile_data_bytes

    regions: List[Region] = []
    remaining = nbytes
    while remaining > 0:
        tile_origin = view.displacement + tile_index * tile_extent
        for region in tile_regions:
            if remaining <= 0:
                break
            if skip_in_tile >= region.size:
                skip_in_tile -= region.size
                continue
            start = region.offset + skip_in_tile
            usable = region.size - skip_in_tile
            take = min(usable, remaining)
            regions.append(Region(tile_origin + start, take))
            remaining -= take
            skip_in_tile = 0
        tile_index += 1
        skip_in_tile = 0
    return RegionList(regions).normalized()


def build_write_vector(view: FileView, offset_etypes: int,
                       data: bytes) -> IOVector:
    """Scatter ``data`` over the view's accessible bytes as a write vector."""
    regions = flatten_view_access(view, offset_etypes, len(data))
    pairs: List[Tuple[int, bytes]] = []
    cursor = 0
    for region in regions:
        pairs.append((region.offset, data[cursor:cursor + region.size]))
        cursor += region.size
    return IOVector.for_write(pairs)


def build_read_vector(view: FileView, offset_etypes: int,
                      nbytes: int) -> IOVector:
    """The read vector of an ``nbytes`` access under the view."""
    regions = flatten_view_access(view, offset_etypes, nbytes)
    return IOVector.for_read([(region.offset, region.size) for region in regions])
