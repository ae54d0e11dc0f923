"""Flattening MPI file views into ``(offset, size)`` pairs.

An MPI file view is ``(displacement, etype, filetype)``: starting at
``displacement``, the file is tiled with repetitions of ``filetype``; only
the bytes belonging to the filetype's type map are *accessible*, and offsets
passed to ``write_at`` / ``read_at`` count in ``etype`` units *within the
accessible bytes*.  Data read or written fills accessible bytes in order.

An access — "``nbytes`` at etype-offset ``offset`` under this view" — is
flattened once, from the filetype's type map, into the absolute byte
ranges it touches, as ``(offset, size)`` pairs in file order (ROMIO keeps
flattened accesses as plain offset / length lists too, one entry per
contiguous piece), and encoded once into the description a collective
exchanges.  Both are remembered on the view, so a dump and its restart
reads flatten and encode their access once.  The write and read vectors
every ADIO driver consumes are built straight from those pairs
(:meth:`~repro.core.listio.IOVector.from_runs`) and carry the description;
:func:`flatten_view_access` returns the pairs themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.listio import IOVector, encode_extents
from repro.core.regions import Extents
from repro.errors import MPIIOError
from repro.mpi.datatypes import BYTE, Datatype


class _Access:
    """One flattened access: its ``(offset, nbytes)``, its ``(offset,
    size)`` pairs in file order (the order the data fills them), their
    encoded description (shared by every vector of the access) and, once
    asked for, its read vector."""

    __slots__ = ("key", "runs", "description", "read_vector")

    def __init__(self, key: Tuple[int, int], runs: Extents):
        self.key = key
        self.runs = runs
        self.description = encode_extents(runs)
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
                        nbytes: int) -> Extents:
    """Absolute ``(offset, size)`` pairs of an ``nbytes`` access at
    ``offset_etypes``, in file order (remembered on the view).

    ``offset_etypes`` is the offset in etype units into the *accessible*
    bytes of the view (MPI's explicit-offset addressing).
    """
    access = _access(view, offset_etypes, nbytes)
    return () if access is None else access.runs


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
            key, tuple(_flatten(view, offset_etypes, nbytes)))
    return last


def _flatten(view: FileView, offset_etypes: int,
             nbytes: int) -> List[Tuple[int, int]]:
    """The runs of a valid, non-empty access (uncached)."""
    skip_bytes = offset_etypes * view.etype.size
    tile = view.filetype.runs()
    tile_data_bytes = view.filetype.size
    tile_extent = view.filetype.extent

    # fast path: a dense filetype (every byte of its extent is accessible)
    # makes the whole view contiguous, so the access is a single run —
    # avoids iterating tile by tile for plain byte-stream views
    if (len(tile) == 1 and tile[0] == (0, tile_data_bytes)
            and tile_data_bytes == tile_extent):
        return [(view.displacement + skip_bytes, nbytes)]

    # skip whole tiles first
    tile_index = skip_bytes // tile_data_bytes
    skip_in_tile = skip_bytes % tile_data_bytes

    # a tile's runs are canonical and tiles follow each other, so the
    # pieces come out in file order; only a tile's first piece can touch
    # the previous tile's last (across the seam) and merge into it.  A
    # whole tile is its runs shifted when they hold exactly its data bytes
    # (an overlapping type map's hold fewer)
    whole = sum([size for _offset, size in tile]) == tile_data_bytes
    runs: List[Tuple[int, int]] = []
    remaining = nbytes
    while remaining > 0:
        tile_origin = view.displacement + tile_index * tile_extent
        if whole and not skip_in_tile and remaining >= tile_data_bytes:
            pieces = [(tile_origin + offset, size) for offset, size in tile]
            remaining -= tile_data_bytes
        else:
            pieces = []
            for offset, size in tile:
                if skip_in_tile >= size:
                    skip_in_tile -= size
                    continue
                take = min(size - skip_in_tile, remaining)
                pieces.append((tile_origin + offset + skip_in_tile, take))
                skip_in_tile = 0
                remaining -= take
                if not remaining:
                    break
        if runs and pieces and sum(runs[-1]) == pieces[0][0]:
            runs[-1] = (runs[-1][0], runs[-1][1] + pieces[0][1])
            del pieces[0]
        runs += pieces
        tile_index += 1
        skip_in_tile = 0
    return runs


def build_write_vector(view: FileView, offset_etypes: int,
                       data: bytes) -> IOVector:
    """Scatter ``data`` over the view's accessible bytes as a write vector.

    The requests carry ``data`` itself (one run) or read-only views of it,
    never copies of its bytes; a mutable ``data`` is frozen first, once
    (:meth:`~repro.core.listio.IOVector.from_runs`).
    """
    access = _access(view, offset_etypes, len(data))
    if access is None:
        return IOVector()
    return IOVector.from_runs(access.runs, data, access.description)


def build_read_vector(view: FileView, offset_etypes: int,
                      nbytes: int) -> IOVector:
    """The read vector of an ``nbytes`` access under the view (the same
    object for a repeated access: a vector is immutable)."""
    access = _access(view, offset_etypes, nbytes)
    if access is None:
        return IOVector()
    if access.read_vector is None:
        access.read_vector = IOVector.from_runs(
            access.runs, description=access.description)
    return access.read_vector
