"""The BlobSeer client library: write and read protocols.

A client runs inside a simulated process (an MPI rank, in the paper's
setting) on a compute node.  Its methods are *generator methods*: they yield
simulation events while data moves over the network and through disks, and
finally return their result.

Write protocol (one vectored write = one snapshot):

1. split the payload into chunk-aligned pieces;
2. ask the provider manager where to place each piece (one small RPC);
3. upload all pieces to their data providers **in parallel and with no
   coordination with other writers** — this is the heavy, fully parallel part;
4. obtain a version ticket from the version manager (small RPC, overlapped
   with step 3);
5. build the copy-on-write metadata nodes for the new snapshot and store them
   on the metadata providers (batched per shard, shipped in parallel);
6. report completion; the version manager publishes snapshots in ticket
   order.

The commit machinery lives in :mod:`repro.blobseer.writepath`: the
:class:`~repro.blobseer.writepath.engine.PipelinedCommitEngine` executes
steps 2-6, overlapping what the protocol allows, and every client's
:class:`~repro.blobseer.writepath.coalescer.WriteCoalescer` can queue several
vectored writes and commit them as *one* merged snapshot batch — one
``allocate``, one ticket, one metadata build — at the next flush/barrier.

Read protocol: resolve the requested ranges against the snapshot's leaves —
each touched leaf looked up at the read version, a partially covered one
followed down its base chain, all in one round trip — slice the extents
of chunks this client itself uploaded out of its
:class:`~repro.blobseer.chunk_cache.ChunkCache` — an uploaded chunk is
immutable, so the writer's buffer is the chunk — and fetch the rest from the
data providers in parallel; a read with nothing left issues no data RPC.
A payload byte is stored once: the chunk a provider keeps, and the writer's
cache holds, is the object the writer handed over (its ``bytes`` or a
read-only view of them), and a read copies each byte once, into the
``bytes`` it returns (one per range, or one for the whole read).
It follows that a writer still reads its own bytes back while their provider
is down (as long as the cache holds them), whereas any other client — a
restarted job included — gets ``ProviderUnavailable`` for the same range.

Besides the stock BlobSeer pair of *contiguous* :meth:`BlobClient.write` /
:meth:`BlobClient.read`, the client carries the paper's non-contiguous
extension: List-I/O style :meth:`BlobClient.vwrite` / :meth:`BlobClient.vread`
carry a whole non-contiguous access in one call and publish it as one
snapshot, so concurrent overlapping accesses never interleave (MPI
atomicity) with no locking anywhere; :meth:`BlobClient.vwrite_queued` /
:meth:`BlobClient.vflush` / :meth:`BlobClient.vbarrier` are the coalescer's
queued interface.

Collective I/O: :mod:`repro.mpiio.adio.collective` runs the two-phase
exchange above any backend and calls its rank's client through the
``collective_*`` hooks here.  An aggregator's stripe is one write placed
ahead (:class:`~repro.blobseer.writepath.engine.PipelinedCommitEngine`): the
access descriptions say what every sub-stripe will hold, so one ``allocate``
places the whole stripe beside round 0's exchange, each round's runs upload
while the group exchanges the next, and one commit of the last round's runs
publishes the whole stripe — one ticket, one metadata build, one
``complete`` per aggregator, one chunk per stripe unit.  A sub-stripe a
failed peer left short is placed on its own; a failed stripe never enters
the write queue, so it is gone for good, its chunks out of the chunk cache
and its ticket released.  The group's highest published version becomes
every rank's watermark and one-shot read hint; when the aggregators'
versions are exactly the consecutive run ending there, each aggregator keys
its stripe's leaves under it too, so a read pinned there finds every leaf
in the resolver's cache.  A collective read's pin fences this rank's
unpublished writes and offers the larger of its hint and its watermark;
only the lead resolver asks for ``latest``, and only without a hint.  A
resolver resolves its stripe with :meth:`BlobClient.fetch_extents`, the
same fetch every read of this client makes: the stripe's extents, each a
stored chunk or a read-only view of one, a hole none at all, so the
exchange cuts each rank's parts as views and the receiving rank's join is
the only copy.  A resolver's walk warms its own node cache, so it walks a
snapshot cold once.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.chunk import ChunkKeyFactory
from repro.blobseer.chunk_cache import ChunkCache
from repro.blobseer.metadata.cache import MetadataNodeCache
from repro.blobseer.metadata.segment_tree import (
    ReadPlanner,
    split_vector_into_pieces,
    stripe_unit_sizes,
)
from repro.blobseer.metadata.tiers import MetadataTierChain
from repro.blobseer.writepath.batch import WriteReceipt
from repro.blobseer.writepath.coalescer import WriteCoalescer
from repro.blobseer.writepath.engine import PipelinedCommitEngine
from repro.core.listio import FetchedExtent, IOVector, assemble
from repro.errors import StorageError, VersionNotFound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blobseer.deployment import BlobSeerDeployment
    from repro.cluster.node import Node

__all__ = ["BlobClient", "WriteReceipt"]

WritePairs = Sequence[Tuple[int, bytes]]
ReadPairs = Sequence[Tuple[int, int]]

#: "not given": follow the cluster config (``None`` is a real capacity —
#: it forces an unbounded cache against a bounded cluster default)
UNSET = object()


class BlobClient:
    """Client-side access to a :class:`~repro.blobseer.deployment.BlobSeerDeployment`.

    Metadata lookups go through the client's tier chain (``tiers``, a
    :class:`~repro.blobseer.metadata.tiers.MetadataTierChain`): a private
    cache of immutable nodes (``metadata_cache``), optionally the compute
    node's shared pool, then the shards, one batched ``get_nodes`` RPC per
    shard and walk round.  A read looks every leaf it touches up at the
    read version, each lookup carrying the runs the walk wants of that
    leaf, and the shard answers the leaf's base-version chain in the same
    round trip, so a cold read costs one round trip and the walk's later
    rounds hit the private cache.  The keyword arguments only pick the
    caches: ``shared_metadata_cache`` and ``metadata_cache_capacity``
    default to the cluster config (an explicit
    ``metadata_cache_capacity=None`` forces an unbounded private cache even
    against a bounded cluster default), while
    ``enable_metadata_cache=False`` keeps no private cache.

    The write path is symmetric: commits route through a
    :class:`~repro.blobseer.writepath.engine.PipelinedCommitEngine` that
    overlaps the version-ticket RPC with the chunk uploads, ships the
    per-shard ``put_nodes`` RPCs in parallel, and write-through-populates
    the chain with the leaves it just published (``write_through_cache=
    False`` disables the priming).
    """

    def __init__(self, deployment: "BlobSeerDeployment", node: "Node",
                 name: Optional[str] = None, *,
                 enable_metadata_cache: bool = True,
                 metadata_cache_capacity: object = UNSET,
                 shared_metadata_cache: object = UNSET,
                 write_through_cache: bool = True):
        self.deployment = deployment
        self.cluster = deployment.cluster
        self.node = node
        self.name = name or f"client:{node.name}"
        self._chunk_keys = ChunkKeyFactory(self.name)
        self._descriptors: Dict[str, BlobDescriptor] = {}
        config = self.cluster.config
        if metadata_cache_capacity is UNSET:
            metadata_cache_capacity = config.metadata_cache_capacity
        if shared_metadata_cache is UNSET:
            shared_metadata_cache = config.shared_metadata_cache
        #: the private node cache (``None`` without one)
        self.metadata_cache = (MetadataNodeCache(metadata_cache_capacity)
                               if enable_metadata_cache else None)
        #: the metadata tier chain every lookup of this client goes through
        self.tiers = MetadataTierChain(
            self, self.name, private=self.metadata_cache,
            pool=(deployment.node_cache(node) if shared_metadata_cache
                  else None))
        #: payloads of the chunks this client uploaded, for its own reads
        self.chunk_cache = ChunkCache()
        self.write_through_cache = write_through_cache
        #: the commit engine every write of this client routes through
        self.writepath = PipelinedCommitEngine(self)
        #: the queue :meth:`vwrite_queued` stages writes in until a flush
        #: point (see :class:`~repro.blobseer.writepath.coalescer.WriteCoalescer`)
        self.coalescer = WriteCoalescer(self)
        #: newest snapshot version this client knows to be published, per
        #: BLOB (fed by completion/publication responses; lets barriers and
        #: read-after-write paths skip redundant wait round-trips)
        self.version_hints: Dict[str, int] = {}
        #: one-shot *read* hints: versions a default (``version=None``) read
        #: may use instead of asking the version manager for ``latest``.
        #: Only sources that just synchronized with publication plant one —
        #: the coalescer's barrier after publishing this client's own writes,
        #: and collective commits piggybacking the group watermark — so a
        #: hinted read is read-your-writes-fresh by construction.  Consumed
        #: on use and dropped at every barrier, so it can never mask another
        #: writer's later synced data.
        self._read_hints: Dict[str, int] = {}
        #: client-side counters (aggregated by the benchmark harness)
        self.bytes_written: int = 0
        self.bytes_read: int = 0
        self.writes: int = 0
        self.reads: int = 0
        #: logical vectored writes accepted (equals ``writes`` unless a
        #: coalescer merged several of them into one snapshot)
        self.logical_writes: int = 0
        #: metadata nodes this client's read traversals used, whichever
        #: tier supplied them
        self.metadata_nodes_fetched: int = 0
        #: read extents requested from the data providers (the ones the
        #: chunk cache did not hold)
        self.extents_fetched: int = 0
        #: ``latest`` round-trips actually issued to the version manager
        self.latest_rpcs: int = 0
        #: write-path counters: control-plane round-trips (allocate, ticket,
        #: complete, publication waits), per-shard put_nodes round-trips and
        #: nodes self-inserted into the cache by write-through population
        self.write_control_rpcs: int = 0
        self.metadata_put_rpcs: int = 0
        self.cache_primed_nodes: int = 0
        #: ``latest`` round-trips elided because a read consumed a hint
        self.latest_rpcs_elided: int = 0
        #: per-rank span context (``None`` unless the cluster traces) — the
        #: single attribute test every instrumented site guards on
        tracer = self.cluster.obs.tracer
        self.trace_ctx = (tracer.context(("rank", self.name),
                                         node=node.name)
                          if tracer is not None else None)

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _rpc(self, service, method, request_bytes, response_bytes, *args,
             trace_parent=None):
        """Every RPC of this client funnels through here.

        When tracing, each call gets a detached span on the *serving
        shard's* lane (so Perfetto shows server-side occupancy), parented
        under ``trace_parent`` or the rank's current mainline span; the
        span id rides into the transport so the request/response link
        transfers attach to it.  Detached because RPCs fan out
        concurrently within a rank — they must never touch the mainline
        stack.
        """
        ctx = self.trace_ctx
        if ctx is None:
            result = yield from self.cluster.rpc.call(
                self.node, service, method, request_bytes, response_bytes,
                *args)
            return result
        span = ctx.begin_detached(
            f"rpc.{method}", cat="rpc", lane=("shard", service.node.name),
            parent=trace_parent if trace_parent is not None else ctx.current,
            service=service.name)
        try:
            result = yield from self.cluster.rpc.call(
                self.node, service, method, request_bytes, response_bytes,
                *args, _trace_parent=span.span_id)
        finally:
            ctx.end(span)
        return result

    def _control(self, service, method, *args, trace_parent=None):
        size = self.cluster.config.control_message_size
        result = yield from self._rpc(service, method, size, size, *args,
                                      trace_parent=trace_parent)
        return result

    def _descriptor(self, blob_id: str):
        if blob_id not in self._descriptors:
            descriptor = yield from self._control(
                self.deployment.version_manager, "get_blob", blob_id)
            self._descriptors[blob_id] = descriptor
        return self._descriptors[blob_id]

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------
    def create_blob(self, blob_id: str, size: int,
                    chunk_size: Optional[int] = None, exist_ok: bool = False):
        """Create a BLOB of ``size`` addressable bytes (snapshot 0 = zeros)."""
        descriptor = BlobDescriptor.create(
            blob_id, size, chunk_size or self.deployment.chunk_size)
        created = yield from self._control(
            self.deployment.version_manager, "create_blob", descriptor, exist_ok)
        self._descriptors[blob_id] = created
        return created

    def open_blob(self, blob_id: str):
        """Fetch (and cache) the descriptor of an existing BLOB."""
        descriptor = yield from self._descriptor(blob_id)
        return descriptor

    def latest_version(self, blob_id: str):
        """Newest published snapshot version."""
        self.latest_rpcs += 1
        version = yield from self._control(
            self.deployment.version_manager, "latest", blob_id)
        self.note_published(blob_id, version)
        return version

    def wait_published(self, blob_id: str, version: int):
        """Block until ``version`` is readable; returns the latest version."""
        self.write_control_rpcs += 1
        latest = yield from self._control(
            self.deployment.version_manager, "wait_published", blob_id, version)
        self.note_published(blob_id, latest)
        return latest

    def note_published(self, blob_id: str, version: int) -> None:
        """Record that ``version`` is known to be published (hint table).

        The observation is forwarded to the tier chain: the node pool's
        admission opens for a version only once *some* client it serves
        saw it published.
        """
        if version > self.version_hints.get(blob_id, 0):
            self.version_hints[blob_id] = version
        self.tiers.note_published(blob_id, version)

    def detach(self) -> None:
        """Detach from the node-local shared cache (process teardown);
        later lookups skip the pool."""
        self.tiers.detach()

    def note_collective_commit(self, blob_id: str, version: int) -> None:
        """Absorb a collective write's published watermark.

        The aggregators of a collective write share the group's highest
        published version with every participating rank at no RPC cost (it
        rides on the closing exchange), so each rank's next default read can
        consume it instead of issuing a ``latest`` round-trip — and still
        observe everything the collective wrote.
        """
        self.note_published(blob_id, version)
        self.offer_read_hint(blob_id)

    def note_collective_read(self, blob_id: str, version: int) -> None:
        """Absorb a collective read's pinned snapshot version.

        Same contract as :meth:`note_collective_commit`: the group just
        synchronized on a published version (the pin every rank read from),
        so each rank may start its next default read there without asking
        the version manager — the one-shot hint the collective consumed in
        its opening phase is refreshed here, never silently lost.
        """
        self.note_collective_commit(blob_id, version)

    def offer_read_hint(self, blob_id: str) -> None:
        """Let the next ``version=None`` read start from the known watermark.

        Only callers that *just* synchronized with publication may offer a
        hint (see ``_read_hints``); anything older must go through the
        version manager so other writers' synced data is never missed.
        """
        version = self.version_hints.get(blob_id, 0)
        if version > 0:
            self._read_hints[blob_id] = version

    def drop_read_hint(self, blob_id: str) -> None:
        """Invalidate a pending read hint (visibility fences must call this)."""
        self._read_hints.pop(blob_id, None)

    def has_unpublished_state(self, blob_id: str) -> bool:
        """Whether a read of ``blob_id`` could miss this client's own writes.

        True when the client holds write state publication has not caught up
        with: queued (uncommitted) writes, unjoined deferred completions, or
        a committed batch whose publication still lags the known watermark
        (an earlier ticket held by another writer delays it — the inline
        ``complete`` then returns a watermark below our own version).
        Read-your-writes paths — the driver's independent read fence and a
        collective read's phase 0 — must fence through the coalescer's
        barrier exactly when this is true.
        """
        if self.writepath.outstanding(blob_id):
            return True
        return bool(self.coalescer.pending_writes(blob_id)
                    or self.coalescer.last_committed_version(blob_id)
                    > self.version_hints.get(blob_id, 0))

    def hinted_blobs(self) -> List[str]:
        """BLOBs currently holding a pending one-shot read hint.

        Global fences iterate this in addition to their own commit targets:
        a hint may exist for a BLOB the fence's owner never committed to
        (e.g. planted by a collective commit on a non-aggregator rank).
        """
        return list(self._read_hints)

    def take_read_hint(self, blob_id: str) -> Optional[int]:
        """Consume the pending read hint, if any (one-shot).

        Resolved against the *current* publication watermark: the client may
        have observed a newer published version since the hint was planted
        (a deferred completion response, an explicit ``latest``/
        ``wait_published`` round-trip), and a default read must never return
        data older than a watermark this client already saw — monotonic
        reads within one client.  Every watermark source is a published
        version, so the resolved value is always safely readable.
        """
        hint = self._read_hints.pop(blob_id, None)
        if hint is None:
            return None
        return max(hint, self.version_hints.get(blob_id, 0))

    # ------------------------------------------------------------------
    # the classic (contiguous) BlobSeer interface
    # ------------------------------------------------------------------
    def write(self, blob_id: str, offset: int, data: bytes):
        """Contiguous write; returns a :class:`WriteReceipt` with the new version."""
        receipt = yield from self._vectored_write(
            blob_id, IOVector.contiguous_write(offset, data))
        return receipt

    def read(self, blob_id: str, offset: int, size: int,
             version: Optional[int] = None):
        """Contiguous read of a published snapshot (default: latest)."""
        data = yield from self.vread(
            blob_id, IOVector.contiguous_read(offset, size), version,
            joined=True)
        return data

    # ------------------------------------------------------------------
    # the paper's non-contiguous (vectored) interface
    # ------------------------------------------------------------------
    @staticmethod
    def _as_write_vector(access: Union[IOVector, WritePairs]) -> IOVector:
        if isinstance(access, IOVector):
            if not access.is_write:
                raise StorageError("vwrite() needs a write vector")
            return access
        return IOVector.for_write(access)

    @staticmethod
    def _as_read_vector(access: Union[IOVector, ReadPairs]) -> IOVector:
        if isinstance(access, IOVector):
            if not access.is_read:
                raise StorageError("vread() needs a read vector")
            return access
        return IOVector.for_read(access)

    def vwrite(self, blob_id: str, access: Union[IOVector, WritePairs]):
        """Atomically write a set of non-contiguous regions as one snapshot.

        ``access`` is either an :class:`~repro.core.listio.IOVector` or a
        plain ``[(offset, payload), ...]`` list.  Returns a
        :class:`WriteReceipt` whose ``version`` names the snapshot this
        write produced.
        """
        receipt = yield from self._vectored_write(
            blob_id, self._as_write_vector(access))
        return receipt

    def vread(self, blob_id: str, access: Union[IOVector, ReadPairs],
              version: Optional[int] = None, *, joined: bool = False):
        """Read a set of non-contiguous regions from one published snapshot.

        Returns one ``bytes`` object per requested range, all taken from the
        same consistent snapshot (the latest published one by default) —
        or, ``joined``, the ranges' bytes back to back as one ``bytes``, the
        buffer an MPI-I/O read fills.  Either way each byte is copied once,
        out of the stored chunk (:func:`~repro.core.listio.assemble`).

        A default read may consume a one-shot hint planted at this client's
        own last barrier or collective commit instead of asking the version
        manager for ``latest`` — it then observes everything this client
        synchronized on, but not writes another client published *after*
        that fence.  When cross-client freshness beyond the last fence
        matters, pass an explicit version (e.g. from :meth:`latest_version`
        or ``wait_published``) — those paths always round-trip.
        """
        vector = self._as_read_vector(access)
        extents = yield from self.fetch_extents(blob_id, vector, version)
        return assemble(vector, extents, joined)

    def vwrite_and_wait(self, blob_id: str, access: Union[IOVector, WritePairs]):
        """Like :meth:`vwrite`, then block until the snapshot is published.

        MPI-I/O write calls in atomic mode return once their effects are
        visible to subsequent reads, so the ADIO driver uses this variant.
        """
        receipt = yield from self.vwrite(blob_id, access)
        yield from self.wait_published(blob_id, receipt.version)
        return receipt

    def vwrite_queued(self, blob_id: str, access: Union[IOVector, WritePairs]):
        """Stage an atomic vectored write for a later coalesced commit.

        The write stays invisible to every reader until :meth:`vflush` /
        :meth:`vbarrier` commits its batch; queue order is preserved, so the
        eventual snapshot equals applying the queued writes serially.
        Returns the :class:`~repro.blobseer.writepath.batch.StagedWrite`
        handle (its ``receipt`` is filled at flush time).
        """
        staged = yield from self.coalescer.enqueue(
            blob_id, self._as_write_vector(access))
        return staged

    def vflush(self, blob_id: Optional[str] = None):
        """Commit queued writes as merged snapshot batches (one per BLOB).

        Returns the commit receipts.  Publication of the batches may still
        be in flight; use :meth:`vbarrier` when subsequent reads must see
        the queued writes.
        """
        receipts = yield from self.coalescer.flush(blob_id)
        return receipts

    def vbarrier(self, blob_id: Optional[str] = None):
        """Flush queued writes and wait until they are published (readable).

        The explicit atomic barrier of the write pipeline: after it returns,
        every write queued before the call is visible to any reader.
        """
        receipts = yield from self.coalescer.barrier(blob_id)
        return receipts

    # ------------------------------------------------------------------
    # vectored machinery
    # ------------------------------------------------------------------
    def _vectored_write(self, blob_id: str, vector: IOVector):
        """Write a whole vector as one snapshot (the paper's atomic unit).

        The commit protocol — placement, uncoordinated parallel uploads,
        version ticket, copy-on-write metadata, in-order publication — lives
        in :class:`~repro.blobseer.writepath.engine.PipelinedCommitEngine`;
        this entry point always commits immediately and blocks on the
        ``complete`` RPC (queued/deferred commits go through a
        :class:`~repro.blobseer.writepath.coalescer.WriteCoalescer`).

        Writes already queued for this BLOB are flushed first: they were
        issued earlier in program order, so they must take their ticket
        before this one does.
        """
        if self.coalescer.pending_writes(blob_id):
            yield from self.coalescer.flush(blob_id)
        receipt = yield from self.writepath.commit(blob_id, vector)
        return receipt

    def fetch_extents(self, blob_id: str, vector: IOVector,
                      version: Optional[int] = None):
        """The vector's ranges at one published snapshot, as the sorted,
        disjoint ``(offset, length, data)`` extents that tile them: ``data``
        the stored chunk's bytes or a read-only view of them, ``None`` for a
        never-written range — a hole carries no bytes, whoever assembles the
        answer writes its zeros (:func:`~repro.core.listio.assemble`), and
        a collective resolver ships it as a descriptor.
        """
        blob = yield from self._descriptor(blob_id)
        if version is None:
            # a hint planted by this client's own barrier or a collective
            # commit names a published snapshot at least as new as anything
            # this client synchronized on — consuming it elides the
            # ``latest`` round-trip without weakening read-your-writes
            hint = self.take_read_hint(blob_id)
            if hint is not None:
                version = hint
                self.latest_rpcs_elided += 1
            else:
                version = yield from self.latest_version(blob_id)
        elif not self.deployment.version_manager.manager.is_published(blob_id, version):
            raise VersionNotFound(
                f"snapshot {version} of {blob_id!r} is not published")
        else:
            # the version was just validated as published: record the
            # observation so the shared tier's admission gate opens for the
            # nodes this traversal is about to resolve
            self.note_published(blob_id, version)

        regions = vector.region_list()
        plan = yield from self._resolve_metadata(blob, version, regions)

        # extents of chunks this client uploaded come out of its cache; the
        # rest are parallel chunk-range fetches — one batched RPC per data
        # provider
        fetched: List[FetchedExtent] = []
        per_provider: Dict[str, list] = {}
        own_chunk = self.chunk_cache.read
        for extent in plan.extents:
            if extent.is_zero:
                fetched.append((extent.offset, extent.length, None))
                continue
            data = own_chunk(extent.chunk, extent.chunk_offset, extent.length)
            if data is not None:
                fetched.append((extent.offset, extent.length, data))
            else:
                per_provider.setdefault(extent.provider_id, []).append(extent)

        def fetch_from(provider_id, extents):
            service = self.deployment.data_provider(provider_id)
            requests = [(extent.chunk, extent.chunk_offset, extent.length)
                        for extent in extents]
            total = sum(extent.length for extent in extents)
            self.extents_fetched += len(extents)
            pieces = yield from self._rpc(
                service, "get_chunk_ranges",
                self.cluster.config.control_message_size, total, requests)
            for extent, data in zip(extents, pieces):
                fetched.append((extent.offset, extent.length, data))

        if per_provider:
            yield self.cluster.sim.fanout(
                [fetch_from(provider_id, extents)
                 for provider_id, extents in sorted(per_provider.items())])

        fetched.sort(key=itemgetter(0))
        self.bytes_read += vector.total_bytes()
        self.reads += 1
        return fetched

    # ------------------------------------------------------------------
    def _resolve_metadata(self, blob: BlobDescriptor, version: int, regions):
        """Resolve a read's leaves at ``version`` through the tier chain.

        Each round of the :class:`~repro.blobseer.metadata.segment_tree.
        ReadPlanner` walk goes through ``self.tiers``, which decides who
        answers, who keeps the answer and which counter moves.  The runs
        wanted of each leaf go along, so a shard answers the leaf's base
        chain in the same round trip: a cold read costs one round trip.
        """
        planner = ReadPlanner(blob, version, regions)
        while not planner.done:
            results = yield from self.tiers.resolve(
                blob.blob_id, planner.pending(), planner.wanted())
            planner.advance(results)
        plan = planner.plan()
        self.metadata_nodes_fetched += plan.nodes_fetched
        return plan

    # ------------------------------------------------------------------
    # the collective hooks (module docstring)
    def collective_flush(self, blob_id: str):
        """Write phase 0: writes this rank queued earlier in program order
        take their tickets before the group's stripe commits do."""
        if self.coalescer.pending_writes(blob_id):
            yield from self.coalescer.flush(blob_id)

    def collective_geometry(self, blob_id: str):
        """``(chunk_size, providers)``: the stripe grid a collective's
        partition aligns to, and the disks a round row spans."""
        blob = yield from self._descriptor(blob_id)
        return blob.chunk_size, len(self.deployment.data_providers)

    def collective_place(self, blob_id: str, parts, rank: int):
        """Place an aggregator's whole stripe, ``parts[k]`` the written
        ``(offset, size)`` extents of its ``k``-th sub-stripe, in a
        background process that never fails: its value is the
        :class:`~repro.blobseer.writepath.batch.AheadWrite` or the
        exception."""
        # the write's ``collective_geometry`` fetched the descriptor
        chunk_size = self._descriptors[blob_id].chunk_size
        units = [stripe_unit_sizes(extents, chunk_size) for extents in parts]
        ctx = self.trace_ctx
        parent = ctx.current if ctx is not None else None

        def place():
            span = None
            if ctx is not None:
                span = ctx.begin_detached("collective.write.place",
                                          cat="collective", parent=parent,
                                          rank=rank)
            try:
                ahead = yield from self.writepath.place_ahead(
                    units, trace_parent=span)
            except Exception as exc:
                return exc
            finally:
                if span is not None:
                    ctx.end(span)
            return ahead

        return self.cluster.sim.process(place(), name=f"{self.name}:place")

    def collective_stage(self, blob_id: str, runs: IOVector, ahead,
                         index: int) -> None:
        """Upload round ``index``'s assembled ``runs`` as part ``index`` of
        the placed stripe ``ahead``, in the background."""
        ctx = self.trace_ctx
        pieces = split_vector_into_pieces(self._descriptors[blob_id], runs)
        self.writepath.stage_ahead(
            blob_id, pieces, ahead, index,
            trace_parent=ctx.current if ctx is not None else None)

    def collective_publish(self, blob_id: str, runs: IOVector, ahead,
                           logical_writes: int):
        """Publish the stripe — ``runs`` plus the parts uploading ``ahead``,
        if any went — as one snapshot; returns its receipt once it is
        published.  A commit that fails forgets ``ahead`` itself."""
        receipt = yield from self.writepath.commit(
            blob_id, runs, ahead=ahead, logical_writes=logical_writes,
            defer_complete=True)
        yield from self.writepath.drain(blob_id)
        # the deferred complete usually reported the stripe published
        # already; only an earlier ticket still in flight costs a wait
        if receipt.version > self.version_hints.get(blob_id, 0):
            yield from self.wait_published(blob_id, receipt.version)
        return receipt

    def collective_forget(self, ahead) -> None:
        """No snapshot will reference what went ``ahead`` of a publish."""
        self.writepath.forget(ahead=ahead)

    def collective_settle(self, blob_id: str, watermark: int, gapless: bool,
                          receipt: Optional[WriteReceipt]) -> None:
        """Absorb a collective write's published ``watermark`` and, on an
        aggregator, its stripe's ``receipt``.  With ``gapless`` versions
        the stripes are chunk-aligned and disjoint and no other writer's
        ticket fits between them: the newest node of each of this stripe's
        leaves at or before the watermark is this aggregator's own."""
        if watermark:
            self.note_collective_commit(blob_id, watermark)
        if receipt is not None and receipt.leaves and gapless:
            self.tiers.admit(blob_id, [((offset, size, watermark), node)
                                       for (offset, size, _version), node
                                       in receipt.leaves])

    def collective_pin(self, blob_id: str, lead: bool):
        """Read phase 0: ``(floor, elided)``, this rank's floor for the
        group's version pin (its own writes readable, its hint consumed)
        and whether the ``lead`` rank's ``latest`` was elided."""
        if self.has_unpublished_state(blob_id):
            yield from self.coalescer.barrier(blob_id)
        hint = self.take_read_hint(blob_id)
        floor = max(hint or 0, self.version_hints.get(blob_id, 0))
        if lead and hint is None:
            latest = yield from self.latest_version(blob_id)
            return max(floor, latest), False
        if lead:
            self.latest_rpcs_elided += 1
        return floor, lead
