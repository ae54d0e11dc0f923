"""ADIO driver for the paper's versioning storage backend.

MPI atomicity is *native* here: every (possibly non-contiguous) write vector
becomes exactly one snapshot of the underlying BLOB, published in ticket
order by the version manager, so the driver never needs to lock anything —
which is the whole point of the paper.

The driver can additionally route non-atomic writes through the write
pipeline's coalescer (``write_coalescing=True``): MPI only requires
non-atomic writes to be visible after ``MPI_File_sync`` / ``MPI_File_close``
(or, here, any read or atomic-mode write on the same handle), so queued
writes accumulate into one merged snapshot per flush point — one
``allocate``, one version ticket, one metadata build for a whole train of
small writes.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.blobseer.client import BlobClient
from repro.core.listio import IOVector
from repro.errors import MPIIOError
from repro.mpiio.adio.base import ADIODriver
from repro.mpiio.adio.collective import CollectiveAggregator, CollectiveReader

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blobseer.deployment import BlobSeerDeployment
    from repro.cluster.node import Node
    from repro.mpi.simcomm import Communicator


class VersioningDriver(ADIODriver):
    """ROMIO-style ADIO module backed by a
    :class:`~repro.blobseer.client.BlobClient` (the client whose
    ``vwrite``/``vread`` :mod:`repro.vstore` puts behind a blocking facade).

    ``write_coalescing`` queues non-atomic writes in the client's
    :class:`~repro.blobseer.writepath.coalescer.WriteCoalescer`; they are
    committed as merged snapshot batches at ``sync``/``close``, before any
    read, and before any atomic-mode write (which must serialize behind
    them in ticket order).

    ``collective_buffering`` routes non-atomic collective calls of both
    directions through the aggregators.  ``write_at_all`` runs two-phase
    collective buffering
    (:class:`~repro.mpiio.adio.collective.CollectiveAggregator`): the ranks
    exchange their pieces so ``collective_aggregators`` ranks commit the
    whole group's access as that many merged stripe batches — one version
    ticket and one metadata build each — instead of one commit per rank.
    The aggregator count is ROMIO's ``cb_nodes`` hint; ``None`` picks one
    per four ranks.  ``read_at_all`` runs aggregated metadata resolution
    (:class:`~repro.mpiio.adio.collective.CollectiveReader`): the same
    ``collective_aggregators`` ranks act as resolvers, pin one snapshot
    version for the group (one ``latest`` RPC — or none, when a read hint
    is pending), walk the segment tree once for the union extent and
    scatter the fetched pieces back, so non-resolver ranks spend zero
    metadata control RPCs.

    Remaining keyword options forward to
    :class:`~repro.blobseer.client.BlobClient` (e.g.
    ``write_through_cache``, ``metadata_cache_capacity``).
    """

    name = "versioning"
    native_atomicity = True

    def __init__(self, deployment: "BlobSeerDeployment", node: "Node",
                 rank_name: Optional[str] = None, *,
                 write_coalescing: bool = False,
                 collective_buffering: bool = False,
                 collective_aggregators: Optional[int] = None,
                 **client_options):
        self.deployment = deployment
        self.write_coalescing = write_coalescing
        self.collective_buffering = collective_buffering
        self.client = BlobClient(deployment, node,
                                 name=rank_name or f"adio:{node.name}",
                                 **client_options)
        #: two-phase exchange engine for ``write_at_all`` (always built; it
        #: only acts when ``collective_buffering`` routes a call through it)
        self.aggregator = CollectiveAggregator(
            self.client, num_aggregators=collective_aggregators)
        #: aggregated-resolution engine for ``read_at_all`` (always built;
        #: it only acts when ``collective_buffering`` routes a call through it)
        self.reader = CollectiveReader(
            self.client, num_resolvers=collective_aggregators)

    # ------------------------------------------------------------------
    @property
    def trace_context(self):
        """The rank's span context (``None`` unless the cluster traces)."""
        return self.client.trace_ctx

    @property
    def observability(self):
        """The cluster's observability handle (latency digests)."""
        return self.client.cluster.obs

    # ------------------------------------------------------------------
    def open(self, path: str, size_hint: int, create: bool, rank: int = 0,
             comm: Optional["Communicator"] = None):
        """Collective open: rank 0 creates the BLOB, everyone then opens it."""
        if create and size_hint <= 0:
            raise MPIIOError(
                "the versioning driver needs a positive size_hint to size the BLOB")
        if create and rank == 0:
            yield from self.client.create_blob(path, size_hint, exist_ok=True)
        if comm is not None:
            yield from comm.barrier(rank)
        descriptor = yield from self.client.open_blob(path)
        return descriptor

    def write_vector(self, path: str, vector: IOVector, atomic: bool,
                     rank: int = 0, comm: Optional["Communicator"] = None):
        """One vectored write = one atomic snapshot (locking-free)."""
        if self.write_coalescing and not atomic:
            yield from self.client.vwrite_queued(path, vector)
            return vector.total_bytes()
        # an atomic write must take its ticket *after* every write queued
        # before it; the client flushes the queue itself before any
        # immediate commit, so program order is preserved here
        if atomic:
            receipt = yield from self.client.vwrite_and_wait(path, vector)
        else:
            receipt = yield from self.client.vwrite(path, vector)
        return receipt.bytes_written

    def write_vector_all(self, path: str, vector: IOVector, atomic: bool,
                         rank: int = 0, comm: Optional["Communicator"] = None):
        """Collective write: two-phase aggregation when it is worth doing.

        Atomic-mode collectives bypass the aggregator (splitting one rank's
        access across stripe snapshots could expose a torn rank-write to a
        concurrent reader, which atomic mode forbids) and so do jobs of one
        rank — both keep the native one-write-one-snapshot path.
        """
        if not self.write_all_synchronizes(atomic, comm):
            written = yield from super().write_vector_all(
                path, vector, atomic, rank=rank, comm=comm)
            return written
        written = yield from self.aggregator.collective_write(
            path, vector, rank, comm)
        return written

    def write_all_synchronizes(self, atomic: bool,
                               comm: Optional["Communicator"]) -> bool:
        """True exactly when the aggregated path handles the collective.

        Every exit of :meth:`~repro.mpiio.adio.collective.
        CollectiveAggregator.collective_write` and of
        :meth:`~repro.mpiio.adio.collective.CollectiveReader.collective_read`
        passes through a group-wide exchange, so the File layer's closing
        barrier would be a second, redundant rendezvous.
        """
        return self.collective_buffering and not atomic \
            and comm is not None and comm.size > 1

    #: ``collective_buffering`` routes both directions alike
    read_all_synchronizes = write_all_synchronizes

    def read_vector_all(self, path: str, vector: IOVector, atomic: bool,
                        rank: int = 0, comm: Optional["Communicator"] = None):
        """Collective read: aggregated resolution when it is worth doing.

        Atomic-mode collectives bypass the reader (an atomic read must ask
        the version manager for the true latest on every rank, never a
        pinned group version that could predate another rank's completed
        atomic write) and so do jobs of one rank — both keep the native
        independent read path.
        """
        if not self.read_all_synchronizes(atomic, comm):
            data = yield from super().read_vector_all(
                path, vector, atomic, rank=rank, comm=comm)
            return data
        data = yield from self.reader.collective_read(
            path, vector, rank, comm)
        return data

    def read_vector(self, path: str, vector: IOVector, atomic: bool,
                    rank: int = 0, comm: Optional["Communicator"] = None):
        """Reads always come from one published snapshot, so they are atomic."""
        if self._needs_flush_barrier(path):
            # read-your-writes: queued writes must be published first
            yield from self.client.vbarrier(path)
        if atomic:
            # atomic mode promises visibility of every other rank's
            # completed atomic write: the read must ask the version manager
            # for the true latest, never serve from a hint — dropped *after*
            # the fence, because the barrier re-plants one when it flushes
            self.client.drop_read_hint(path)
        data = yield from self.client.vread(path, vector, joined=True)
        return data

    def _needs_flush_barrier(self, path: str) -> bool:
        """Whether a read must fence the write pipeline first.

        Only when this client actually has unpublished state of its own:
        queued writes, unjoined deferred completions, or a committed batch
        whose publication still lags the known watermark (an earlier ticket
        held by another writer delays it — the inline ``complete`` then
        returns a watermark below our own version).  A collective write
        leaves none of these behind (its stripes were committed and the
        watermark shared), so the read hint it planted survives to the read
        and elides the ``latest`` round-trip.
        """
        if not (self.write_coalescing or self.collective_buffering):
            return False
        return self.client.has_unpublished_state(path)

    def sync(self, path: str):
        """MPI_File_sync: commit and publish any queued writes."""
        if self.write_coalescing or self.collective_buffering:
            yield from self.client.vbarrier(path)
        return None

    def close(self, path: str):
        """Close flushes like a sync (MPI ties visibility to close as well)."""
        if self.write_coalescing or self.collective_buffering:
            yield from self.client.vbarrier(path)
        return None

    def file_size(self, path: str):
        """The requested size recorded in the BLOB descriptor."""
        descriptor = yield from self.client.open_blob(path)
        return descriptor.requested_size
