"""The MPI-I/O ``File`` object.

This mirrors the subset of the MPI-I/O interface the paper's workloads use:

* collective open with an access mode (:class:`AccessMode`);
* per-rank file views set with derived datatypes (:meth:`File.set_view`);
* explicit-offset reads and writes, independent (``read_at`` / ``write_at``)
  and collective (``read_at_all`` / ``write_at_all``);
* atomic mode (:meth:`File.set_atomicity`) with the semantics of the MPI
  standard: in atomic mode, concurrent overlapping writes — including
  non-contiguous ones described by file views — must not interleave.

Like ROMIO, the File object contains no storage code: it flattens the access
against the rank's view and hands the resulting vector to its ADIO driver.
"""

from __future__ import annotations

import enum
from typing import Optional, TYPE_CHECKING

from repro.errors import MPIIOError
from repro.mpi.datatypes import BYTE, Datatype
from repro.mpiio.flatten import FileView, build_read_vector, build_write_vector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.simcomm import Communicator
    from repro.mpiio.adio.base import ADIODriver


class AccessMode(enum.Flag):
    """MPI_File_open access modes (the subset the workloads need)."""

    RDONLY = enum.auto()
    WRONLY = enum.auto()
    RDWR = enum.auto()
    CREATE = enum.auto()
    EXCL = enum.auto()

    @classmethod
    def default_write(cls) -> "AccessMode":
        """``CREATE | RDWR``, the mode every workload opens its dump file with."""
        return cls.CREATE | cls.RDWR


class File:
    """One rank's handle on a shared MPI-I/O file."""

    def __init__(self, driver: "ADIODriver", path: str, amode: AccessMode,
                 rank: int = 0, comm: Optional["Communicator"] = None):
        self.driver = driver
        self.path = path
        self.amode = amode
        self.rank = rank
        self.comm = comm
        self.view = FileView()
        self._atomic = False
        self._open = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, driver: "ADIODriver", path: str,
             amode: Optional[AccessMode] = None, rank: int = 0,
             comm: Optional["Communicator"] = None, size_hint: int = 0):
        """Open (collectively when ``comm`` is given) the file ``path``.

        Generator method: run it inside the rank's simulated process.
        """
        amode = amode or AccessMode.default_write()
        handle = cls(driver, path, amode, rank=rank, comm=comm)
        yield from driver.open(path, size_hint, create=bool(amode & AccessMode.CREATE),
                               rank=rank, comm=comm)
        handle._open = True
        return handle

    def close(self):
        """Close the handle (collective in MPI; here a local driver hook)."""
        self._ensure_open()
        yield from self.driver.close(self.path)
        self._open = False
        return None

    def sync(self):
        """MPI_File_sync."""
        self._ensure_open()
        yield from self.driver.sync(self.path)
        return None

    def get_size(self):
        """Current file size as known by the backend."""
        self._ensure_open()
        size = yield from self.driver.file_size(self.path)
        return size

    # ------------------------------------------------------------------
    # view and atomicity (local, non-generator operations)
    # ------------------------------------------------------------------
    def set_view(self, displacement: int = 0, etype: Datatype = BYTE,
                 filetype: Optional[Datatype] = None) -> None:
        """Install this rank's file view (``MPI_File_set_view``)."""
        self.view = FileView(displacement=displacement, etype=etype,
                             filetype=filetype or etype)

    def set_atomicity(self, flag: bool) -> None:
        """Enable/disable MPI atomic mode (``MPI_File_set_atomicity``)."""
        self._atomic = bool(flag)

    def get_atomicity(self) -> bool:
        """Current atomic-mode flag."""
        return self._atomic

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    def write_at(self, offset: int, data: bytes):
        """Independent explicit-offset write through the rank's view."""
        self._ensure_open()
        self._ensure_writable()
        vector = build_write_vector(self.view, offset, bytes(data))
        if len(vector) == 0:
            return 0
        token = self._begin_op("file.write_at", offset,
                               vector.total_bytes())
        try:
            written = yield from self.driver.write_vector(
                self.path, vector, atomic=self._atomic, rank=self.rank,
                comm=None)
        finally:
            self._end_op(token)
        return written

    def write_at_all(self, offset: int, data: bytes):
        """Collective explicit-offset write (all ranks must call it).

        Routed through the driver's collective entry point: drivers with
        collective buffering coordinate the ranks (exchange + aggregated
        commit), every other driver falls back to independent writes.  Ranks
        whose view maps to an empty access still participate, as MPI
        requires of a collective call.
        """
        self._ensure_open()
        self._ensure_writable()
        vector = build_write_vector(self.view, offset, bytes(data))
        token = self._begin_op("file.write_at_all", offset,
                               vector.total_bytes())
        try:
            written = yield from self.driver.write_vector_all(
                self.path, vector, atomic=self._atomic, rank=self.rank,
                comm=self.comm)
            if self.comm is not None \
                    and not self.driver.write_all_synchronizes(self._atomic,
                                                               self.comm):
                yield from self.comm.barrier(self.rank)
        finally:
            self._end_op(token)
        return written

    def read_at(self, offset: int, size: int):
        """Independent explicit-offset read through the rank's view."""
        self._ensure_open()
        vector = build_read_vector(self.view, offset, size)
        if len(vector) == 0:
            return b""
        token = self._begin_op("file.read_at", offset,
                               vector.total_bytes())
        try:
            data = yield from self.driver.read_vector(
                self.path, vector, atomic=self._atomic, rank=self.rank,
                comm=None)
        finally:
            self._end_op(token)
        return data

    def read_at_all(self, offset: int, size: int):
        """Collective explicit-offset read (all ranks must call it).

        Routed through the driver's collective entry point: drivers with
        aggregated metadata resolution coordinate the ranks (one shared
        snapshot pin, resolver-owned tree walks, data scatter), every other
        driver falls back to independent reads.  Ranks whose view maps to
        an empty access still participate, as MPI requires of a collective
        call.
        """
        self._ensure_open()
        vector = build_read_vector(self.view, offset, size)
        token = self._begin_op("file.read_at_all", offset,
                               vector.total_bytes())
        try:
            data = yield from self.driver.read_vector_all(
                self.path, vector, atomic=self._atomic, rank=self.rank,
                comm=self.comm)
            if self.comm is not None \
                    and not self.driver.read_all_synchronizes(self._atomic,
                                                              self.comm):
                yield from self.comm.barrier(self.rank)
        finally:
            self._end_op(token)
        return data

    def _begin_op(self, name: str, offset: int, nbytes: int):
        """Open the observation bracket of one file operation.

        Roots the mainline span (when the backend traces) and notes the
        operation start for the latency digest tap.  Returns an opaque
        token for :meth:`_end_op` — ``None`` when both channels are
        disabled, which is what the default configuration pays.
        """
        ctx = self.driver.trace_context
        obs = self.driver.observability
        if ctx is None and (obs is None or obs.digests is None):
            return None
        span = None
        if ctx is not None:
            span = ctx.begin(name, cat="mpiio", rank=self.rank,
                             path=self.path, offset=offset, bytes=nbytes)
        started = obs.sim.now if obs is not None else 0.0
        return (name, span, ctx, obs, started)

    def _end_op(self, token) -> None:
        """Close the bracket: finish the span, feed the digest tap."""
        if token is None:
            return
        name, span, ctx, obs, started = token
        if span is not None:
            ctx.finish(span)
        if obs is not None and obs.digests is not None:
            obs.digests.op(name, obs.sim.now - started)

    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if not self._open:
            raise MPIIOError(f"file {self.path!r} is not open")

    def _ensure_writable(self) -> None:
        if not (self.amode & (AccessMode.WRONLY | AccessMode.RDWR)):
            raise MPIIOError(f"file {self.path!r} was opened read-only")
