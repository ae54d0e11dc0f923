"""The ADIO driver interface.

A driver instance belongs to one rank (it wraps that rank's storage client)
and translates the flattened, view-independent accesses produced by
:class:`repro.mpiio.file.File` into operations of its storage backend.  All
data-path methods are generator methods running inside the rank's simulated
process.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.core.listio import IOVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.simcomm import Communicator


class ADIODriver:
    """Abstract storage driver used by the MPI-I/O layer."""

    #: registry name (``versioning``, ``posix-locking``, ...)
    name = "abstract"
    #: True when the driver guarantees MPI atomicity natively (no locking
    #: needed at the MPI-I/O layer even in atomic mode)
    native_atomicity = False
    #: per-rank :class:`~repro.obs.trace.TraceContext` the File layer roots
    #: its operation spans in; ``None`` (the default) means no tracing —
    #: drivers whose backend traces expose their client's context instead
    trace_context = None
    #: the cluster's :class:`~repro.obs.Observability` (digest taps) the
    #: File layer taps per operation; ``None`` (the default)
    #: means no cluster behind the driver — cluster-backed drivers expose
    #: their client's handle instead
    observability = None

    # ------------------------------------------------------------------
    # interface (generator methods)
    # ------------------------------------------------------------------
    def open(self, path: str, size_hint: int, create: bool, rank: int = 0,
             comm: Optional["Communicator"] = None):
        """Open (collectively, when ``comm`` is given) the file ``path``."""
        raise NotImplementedError
        yield  # pragma: no cover

    def write_vector(self, path: str, vector: IOVector, atomic: bool,
                     rank: int = 0, comm: Optional["Communicator"] = None):
        """Write a flattened access; honour MPI atomicity when ``atomic``."""
        raise NotImplementedError
        yield  # pragma: no cover

    def write_vector_all(self, path: str, vector: IOVector, atomic: bool,
                         rank: int = 0, comm: Optional["Communicator"] = None):
        """Collective write entry point (``MPI_File_write_at_all``).

        The default treats a collective write as ``size`` independent writes
        (what every driver did before collective buffering existed); drivers
        that coordinate ranks — exchange phases, aggregation — override it.
        All ranks of ``comm`` call it, including ranks with empty vectors.
        """
        if len(vector) == 0:
            return 0
        written = yield from self.write_vector(path, vector, atomic,
                                               rank=rank, comm=comm)
        return written

    def write_all_synchronizes(self, atomic: bool,
                               comm: Optional["Communicator"]) -> bool:
        """Whether :meth:`write_vector_all` already rendezvouses the ranks.

        The File layer closes a collective write with a barrier only when
        the driver's path did not — a coordinating driver's final exchange
        is already a full rendezvous, and a second one would just be charged
        on top.  Must return the same value on every rank of a job.
        """
        return False

    def read_vector(self, path: str, vector: IOVector, atomic: bool,
                    rank: int = 0, comm: Optional["Communicator"] = None):
        """Read a flattened access into one buffer.

        Returns one ``bytes``: the requests' bytes back to back, in request
        order — what an MPI-I/O read fills the caller's buffer with.  A
        driver builds it with a single ``b"".join`` over read-only views of
        the bytes its backend holds, so each byte is copied once, into the
        buffer.  (A POSIX object is mutable, so its server answers with a
        copy of the range; the join is then the only other copy.)
        """
        raise NotImplementedError
        yield  # pragma: no cover

    def read_vector_all(self, path: str, vector: IOVector, atomic: bool,
                        rank: int = 0, comm: Optional["Communicator"] = None):
        """Collective read entry point (``MPI_File_read_at_all``).

        The default treats a collective read as ``size`` independent reads
        (what every driver did before collective reads existed); drivers
        that coordinate ranks — aggregated metadata resolution, data
        scatter — override it.  All ranks of ``comm`` call it, including
        ranks with empty vectors.  Returns one buffer, as
        :meth:`read_vector` does.
        """
        if len(vector) == 0:
            return b""
        data = yield from self.read_vector(path, vector, atomic,
                                           rank=rank, comm=comm)
        return data

    def read_all_synchronizes(self, atomic: bool,
                              comm: Optional["Communicator"]) -> bool:
        """Whether :meth:`read_vector_all` already rendezvouses the ranks.

        The File layer closes a collective read with a barrier only when
        the driver's path did not — mirror of :meth:`write_all_synchronizes`.
        Must return the same value on every rank of a job.
        """
        return False

    def file_size(self, path: str):
        """Current size of the file as known by the backend."""
        raise NotImplementedError
        yield  # pragma: no cover

    def sync(self, path: str):
        """Flush outstanding data (a no-op for both simulated backends)."""
        return None
        yield  # pragma: no cover

    def close(self, path: str):
        """Release per-file driver state (default: nothing to do)."""
        return None
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} ({self.name})>"
