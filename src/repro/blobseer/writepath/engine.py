"""The pipelined commit engine: one write batch → one published snapshot.

The engine owns the commit protocol of a :class:`~repro.blobseer.client.
BlobClient`, in two halves.  :meth:`~PipelinedCommitEngine.stage` puts a
write's chunk-aligned pieces down — pack into stripe units, ``allocate``,
``put_chunks`` — and hands them back placed, payloads dropped;
:meth:`~PipelinedCommitEngine.publish` turns placed pieces into a snapshot
— ticket, copy-on-write metadata, ``complete``.
:meth:`~PipelinedCommitEngine.commit` splits a write vector into its pieces
once and composes the two; every independent write runs it (one too big
for one round in rounds, below).  A writer whose data arrives over time
but whose shape is known — a collective aggregator, one exchange round
after another — has the whole write placed first
(:meth:`~PipelinedCommitEngine.place_ahead`, the write's one ``allocate``),
starts :meth:`~PipelinedCommitEngine.stage_ahead` on each part's pieces as
it has them and names that :class:`~repro.blobseer.writepath.batch.
AheadWrite` in the one ``commit`` that ends the write: staging costs no
ticket and no further placement, so however many parts were uploaded ahead
there is one ``allocate``, one ticket, one metadata build over all their
pieces, one ``complete``, one snapshot.

The engine overlaps everything the protocol allows:

* the version ticket is requested *concurrently* with the chunk uploads of
  the commit's own ``stage`` — the ticket round-trip disappears behind the
  (much heavier) data transfers;
* the per-shard ``put_nodes`` RPCs are issued in parallel, mirroring the
  batched read path, instead of one blocking round-trip per shard;
* a write placed ahead stores its metadata while its parts upload: a
  staging fires its part's placed pieces before its upload starts, so the
  commit builds and stores the nodes once it holds the ticket and every
  part is placed, then joins the uploads;
* a batch commit may *defer* its ``complete`` RPC: the call is launched as a
  background process and the next batch starts immediately, so back-to-back
  writes pipeline ``assign_ticket``/``complete`` across snapshots.
  :meth:`PipelinedCommitEngine.drain` joins the in-flight completions (the
  coalescer's barrier does this before waiting for publication).

Placement is by *stripe unit*, not by piece: a write's pieces are packed, in
vector order, into units of at most one chunk, the provider manager places
the units, and each provider receives its units' pieces in one ``put_chunks``
RPC — one append to the provider's log, at most one disk I/O.  Every write
creates new immutable chunks whose location no file offset dictates, so a
write of many small pieces reaches the disks as few large requests, and
requests queued at a busy disk as one sequential run (``Disk.append``),
which an update-in-place striped file cannot do.

Correctness does not move: metadata nodes and chunks are always stored
*before* ``complete`` is issued, and the version manager still publishes
strictly in ticket order, so deferring a completion can delay publication
but never reorder it.  An independent write too big for one round goes
ahead in rounds, as a collective stripe does: the commit packs its pieces
into stripe units and cuts them into k = ⌊bytes ÷ (providers spanned ×
``disk_overhead`` × ``disk_bandwidth``)⌋ rounds of consecutive units (never
less than a stripe row), so that each provider's share of a round is worth
at least one disk positioning.  A round is the slice of the write's pieces
from its first unit on, so it packs to exactly its units.  With k > 1 the
commit has the whole write placed, stages every round but the last ahead
and commits the last with them — the rounds stream to the disks one behind
the other, and the nodes are stored as soon as the ticket is held.
A write of one round keeps storing its nodes once its uploads are in: a
commit returning earlier lets the writer's next write draw its ticket
earlier, which reorders tickets among concurrent writers, and for EXP1's
and EXP2's one-round writes that cost the reads more than it saved the
writes (``benchmarks/README.md``).

Write-through cache population rides on the commit: the writer just built
every leaf of the new snapshot, so offering them to its own metadata tier
chain costs no RPC, and its read-after-write of that snapshot finds every
leaf on its exact-version key.  The receipt hands the entries back
(``WriteReceipt.leaves``), so a collective aggregator can re-key them under
the group's watermark.
The private cache, which dies with the client, is primed before
``complete`` — cached entries only become observable once the snapshot is
published, and published nodes are immutable — the node pool only once
``complete`` reports the version published.  The data rides along the same
way: ``stage`` hands every payload it uploaded to the client's
:class:`~repro.blobseer.chunk_cache.ChunkCache`, and a commit that fails
takes them out again (:meth:`~PipelinedCommitEngine.forget`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.blobseer.metadata.segment_tree import (
    WritePiece,
    build_leaf_segments,
    build_write_metadata,
    pack_pieces_into_stripe_units,
    split_vector_into_pieces,
)
from repro.blobseer.metadata.store import PartitionedMetadataStore
from repro.blobseer.writepath.batch import (
    AheadWrite,
    WriteReceipt,
    require_payload,
)
from repro.core.listio import IOVector
from repro.errors import InvalidRegion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blobseer.blob import BlobDescriptor
    from repro.blobseer.client import BlobClient
    from repro.blobseer.metadata.nodes import MetadataNode
    from repro.simengine.process import Process


class PipelinedCommitEngine:
    """Executes write commits for one client (see module docstring)."""

    def __init__(self, client: "BlobClient"):
        self.client = client
        # blob_id -> completion processes still in flight (deferred commits)
        self._inflight: Dict[str, List["Process"]] = {}

    # ------------------------------------------------------------------
    def outstanding(self, blob_id: str = None) -> int:
        """Deferred ``complete`` RPCs not yet joined by :meth:`drain`."""
        if blob_id is not None:
            return len(self._inflight.get(blob_id, []))
        return sum(len(procs) for procs in self._inflight.values())

    # ------------------------------------------------------------------
    def _wcontrol(self, service, method, *args, trace_parent=None):
        """A write-side control round-trip (counted on the client)."""
        self.client.write_control_rpcs += 1
        result = yield from self.client._control(service, method, *args,
                                                 trace_parent=trace_parent)
        return result

    # ------------------------------------------------------------------
    def commit(self, blob_id: str, vector: IOVector, *,
               ahead: Optional[AheadWrite] = None,
               logical_writes: int = 1, defer_complete: bool = False,
               trace_parent=None):
        """Commit one write vector (possibly a merged batch) as one snapshot.

        ``vector`` split into pieces once, then :meth:`stage` and
        :meth:`publish` composed.  ``ahead`` is a write :meth:`place_ahead`
        placed: the parts :meth:`stage_ahead` uploaded while the rest was
        still arriving belong to the same snapshot, and ``vector`` — its
        last part — may be empty when there are any; when there are,
        ``vector`` is staged ahead too, and the snapshot's metadata is
        stored while the parts upload.  Without ``ahead`` a vector too big
        for one round becomes such a write, its pieces cut into rounds by
        :meth:`_in_rounds` (the module docstring has the rule); one of a
        single round stores its metadata once its uploads are in.
        ``logical_writes`` records how many application writes the vector
        carries (a coalesced batch, a collective stripe); ``defer_complete``
        launches the ``complete`` RPC as a background process so the caller
        can start its next batch immediately — callers must eventually
        :meth:`drain`.  A write that would touch no byte, with no part
        staged ahead, raises ``InvalidRegion`` before any RPC.

        ``trace_parent`` is the caller's span (a coalescer batch, say; the
        rank's current mainline span when ``None``).
        The commit span and its stage spans are all *detached* — commits
        may overlap each other (deferred completes) and overlap the rank
        mainline, so none of them may touch the context's span stack.
        """
        client = self.client
        require_payload(vector, ahead)
        if not (ahead and ahead.stagings) \
                and not any(request.size for request in vector):
            # nothing would reach a leaf: fail before any RPC is paid for
            raise InvalidRegion("a write must touch at least one byte")
        started_at = client.cluster.sim.now
        ctx = client.trace_ctx
        span = None
        if ctx is not None:
            span = ctx.begin_detached(
                "commit", cat="write",
                parent=trace_parent if trace_parent is not None else ctx.current,
                blob=blob_id, logical_writes=logical_writes)
        pieces, ticket = [], None
        try:
            if len(vector):
                blob = yield from client._descriptor(blob_id)
                split = split_vector_into_pieces(blob, vector)
                if ahead is None:
                    ahead, split = yield from self._in_rounds(blob, split, span)
                if ahead is not None:
                    # the write's last part goes ahead like the others did
                    self.stage_ahead(blob_id, split, ahead,
                                     len(ahead.placed) - 1, trace_parent=span)
                else:
                    pieces, ticket = yield from self.stage(
                        blob_id, split, take_ticket=True, trace_parent=span)
            receipt = yield from self.publish(
                blob_id, pieces, ticket, logical_writes, defer_complete,
                started_at, span, ahead)
        except Exception:
            # no snapshot will reference what this commit uploaded
            self.forget(pieces, ahead)
            raise
        finally:
            if span is not None:
                ctx.end(span)
        return receipt

    def _in_rounds(self, blob: "BlobDescriptor", pieces: List[WritePiece],
                   trace_parent):
        """Send a write too big for one round ahead of its commit, in rounds.

        A round gives each provider the write spans at least a disk
        positioning's worth of bytes: k = ⌊bytes ÷ (providers spanned ×
        ``disk_overhead`` × ``disk_bandwidth``)⌋ rounds of ⌈units ÷ k⌉
        consecutive stripe units of ``pieces`` — never fewer units than
        providers spanned, one stripe row, as a collective round is whole
        rows; a round's pieces start at its first unit's first piece.  With
        more than one round the whole write is placed at once, every round
        but the last is staged ahead and ``(ahead, last round's pieces)``
        is returned; otherwise ``(None, pieces)``.
        """
        client = self.client
        unit_starts, units = pack_pieces_into_stripe_units(
            pieces, blob.chunk_size)
        config = client.cluster.config
        spanned = min(len(units), len(client.deployment.data_providers))
        positioning = spanned * config.disk_overhead * config.disk_bandwidth
        rounds = (int(sum(units) // positioning) if positioning
                  else len(units))
        per_round = max(spanned, -(-len(units) // max(rounds, 1)))
        if per_round >= len(units):
            return None, pieces
        firsts = range(0, len(units), per_round)
        ahead = yield from self.place_ahead(
            [units[first:first + per_round] for first in firsts],
            trace_parent)
        cuts = unit_starts[::per_round]
        for index, (start, stop) in enumerate(zip(cuts, cuts[1:])):
            self.stage_ahead(blob.blob_id, pieces[start:stop], ahead, index,
                             trace_parent=trace_parent)
        return ahead, pieces[cuts[-1]:]

    def forget(self, pieces=(), ahead: Optional[AheadWrite] = None) -> None:
        """Drop the chunk-cache entries of uploads no snapshot will reference.

        ``pieces`` are staged pieces of a commit that failed; ``ahead`` is a
        write given up whole — its finished stagings' pieces go now, the
        parts still uploading as they land (:meth:`stage_ahead`).
        """
        if ahead is not None:
            ahead.abandoned = True
            pieces = list(pieces)
            for process in ahead.stagings:
                if not (process.is_alive
                        or isinstance(process.value, Exception)):
                    pieces.extend(process.value)
        discard = self.client.chunk_cache.discard
        for piece in pieces:
            discard(piece.chunk)

    def _allocate(self, unit_sizes: List[int], trace_parent=None):
        """Placement: one control-plane RPC to the provider manager."""
        providers = yield from self._wcontrol(
            self.client.deployment.provider_manager, "allocate", unit_sizes,
            self.client.name, trace_parent=trace_parent)
        return providers

    def stage(self, blob_id: str, pieces: List[WritePiece], *, placed=None,
              take_ticket: bool = False, trace_parent=None, placing=None):
        """Steps 2-3 of a commit: place and upload a write's ``pieces``.

        ``placed`` is the ``(unit_sizes, providers)`` :meth:`place_ahead`
        obtained for this part of a write; pieces that are not the part
        declared (a peer of the collective failed to deliver its bytes), or
        that were never declared, are placed here.  Returns ``(pieces,
        ticket)``: the pieces placed, their payloads handed over to the
        client's chunk cache now that the providers hold the bytes (a stage
        that fails keeps nothing), and — with ``take_ticket`` — the
        ``(version, base_version)`` of a ticket requested *concurrently*
        with the uploads (released again if an upload fails), else ``None``.
        ``placing``, if given, is an event fired with the pieces the moment
        they are placed, before any upload is issued.
        """
        client = self.client
        sim = client.cluster.sim
        deployment = client.deployment
        ctx = client.trace_ctx
        blob = yield from client._descriptor(blob_id)

        # 2. placement: what is placed is the stripe unit, and every piece
        #    follows its unit
        unit_starts, unit_sizes = pack_pieces_into_stripe_units(
            pieces, blob.chunk_size)
        if placed is not None and placed[0] == unit_sizes:
            providers = placed[1]
        else:
            providers = yield from self._allocate(unit_sizes, trace_parent)

        # 3. fully parallel, uncoordinated chunk uploads — one batched RPC
        #    per destination provider
        per_provider: Dict[str, list] = {}
        bounds = zip(unit_starts, unit_starts[1:] + [len(pieces)])
        for provider_id, (start, stop) in zip(providers, bounds, strict=True):
            for piece in pieces[start:stop]:
                piece.chunk = client._chunk_keys.next_key()
                piece.provider_id = provider_id
                per_provider.setdefault(provider_id, []).append(piece)
        if placing is not None:
            placing.succeed(pieces)
        upload_span = None
        if ctx is not None and per_provider:
            upload_span = ctx.begin_detached(
                "commit.upload", cat="write", parent=trace_parent,
                pieces=len(pieces), units=len(unit_sizes),
                providers=len(per_provider))
        upload_calls = []
        for provider_id, provider_pieces in sorted(per_provider.items()):
            service = deployment.data_provider(provider_id)
            payload = [(piece.chunk, piece.data) for piece in provider_pieces]
            payload_bytes = sum(piece.length for piece in provider_pieces)
            upload_calls.append(
                client._rpc(service, "put_chunks", payload_bytes,
                            client.cluster.config.control_message_size, payload,
                            trace_parent=upload_span))

        # 4a. the version ticket, overlapped with the uploads (the ticket is
        #     a tiny control message; the uploads dominate)
        ticket = None
        if take_ticket:
            uploads = sim.fanout(upload_calls)
            ticket_process = sim.process(
                self._wcontrol(deployment.version_manager, "assign_ticket",
                               blob_id, trace_parent=trace_parent),
                name=f"{client.name}:ticket")
            try:
                yield sim.all_of([uploads, ticket_process])
            except Exception:
                # an upload failed while the ticket was (possibly already)
                # assigned; release it or every later ticket's publication
                # would stall behind a write that can never complete
                yield from self._release_ticket(blob_id, ticket_process)
                raise
            ticket = ticket_process.value
        elif upload_calls:
            yield sim.fanout(upload_calls)
        # with a ticket the join covers uploads *and* the (tiny) ticket
        # round-trip; the upload RPCs carry the exact per-provider intervals
        if upload_span is not None:
            ctx.end(upload_span)
        # the providers hold the bytes and will never change them: the
        # client keeps its reference — the payload object ``put_chunk``
        # stored, the writer's buffer or a view of it, not a copy — for its
        # own reads
        keep = client.chunk_cache.put
        for piece in pieces:
            keep(piece.chunk, piece.data)
            piece.data = None
        return pieces, ticket

    def place_ahead(self, unit_sizes: List[List[int]], trace_parent=None):
        """Place a whole write before its bytes are here: one ``allocate``.

        ``unit_sizes[k]`` declares the stripe units of the write's part
        ``k`` (:func:`~repro.blobseer.metadata.segment_tree.
        stripe_unit_sizes` of its extents).  Returns the
        :class:`~repro.blobseer.writepath.batch.AheadWrite` to
        :meth:`stage_ahead` every part but the last through and to name in
        the :meth:`commit` that carries the last: however many parts upload
        ahead, the write costs the control RPCs of a single commit.
        """
        providers = yield from self._allocate(
            [size for part in unit_sizes for size in part], trace_parent)
        placed, start = [], 0
        for part in unit_sizes:
            placed.append((part, providers[start:start + len(part)]))
            start += len(part)
        return AheadWrite(placed)

    def stage_ahead(self, blob_id: str, pieces, ahead: AheadWrite,
                    part: int, *, trace_parent=None) -> None:
        """Start :meth:`stage` on part ``part`` of ``ahead`` in the background.

        The process never fails — nobody may be waiting when an upload dies,
        and an unobserved failure would stop the simulator: its value is the
        staged pieces or the exception, and :meth:`commit` raises the latter.
        It holds no ticket.  It places the part at the instant it starts and
        fires ``ahead.parts[part]`` with the placed pieces — or with the
        exception, if the part failed before it was placed — so the commit
        can build the metadata while the bytes are still on their way.
        """
        placing = self.client.cluster.sim.event()

        def contained():
            try:
                yield from self.stage(
                    blob_id, pieces, placed=ahead.placed[part],
                    trace_parent=trace_parent, placing=placing)
            except Exception as exc:
                if not placing.triggered:
                    placing.succeed(exc)
                return exc
            if ahead.abandoned:
                self.forget(pieces)
            return pieces

        ahead.parts.append(placing)
        ahead.stagings.append(self.client.cluster.sim.process(
            contained(), name=f"{self.client.name}:stage"))

    def _pieces_of(self, events):
        """The pieces ``events`` carry, in order, once every one has fired.

        The events are :meth:`stage_ahead`'s stagings or placements, whose
        value is the pieces or the exception that stopped them; the first
        exception is raised.
        """
        yield self.client.cluster.sim.all_of(events)
        pieces = []
        for event in events:
            if isinstance(event.value, Exception):
                raise event.value
            pieces.extend(event.value)
        return pieces

    def publish(self, blob_id: str, pieces, ticket, logical_writes,
                defer_complete, started_at, span,
                ahead: Optional[AheadWrite] = None):
        """Steps 4-6 of a commit: ticket, metadata over ``pieces``, complete.

        ``ticket`` is what :meth:`stage` returned; ``None`` requests one now.
        With ``ahead``'s stagings the pieces are theirs: the ticket is
        requested once the last part is placed, the metadata is built and
        stored as soon as every part is, and ``complete`` waits for the
        uploads as well.
        """
        client = self.client
        sim = client.cluster.sim
        ctx = client.trace_ctx
        blob = yield from client._descriptor(blob_id)
        stagings = ahead.stagings if ahead is not None else ()
        nodes = None
        try:
            # 4b. version ticket, if the uploads did not bring one; it rides
            #     along with the last part's upload (a part that cannot be
            #     placed takes none)
            if stagings:
                yield from self._pieces_of(ahead.parts[-1:])
            if ticket is None:
                ticket = yield from self._wcontrol(
                    client.deployment.version_manager, "assign_ticket",
                    blob_id, trace_parent=span)
            version, base_version = ticket
            if stagings:
                pieces = yield from self._pieces_of(ahead.parts)
                # parts split on their own number their requests from 0
                # (a collective's sub-stripes): overlaps resolve in the
                # order the parts were staged, the commit's own vector last
                for order, piece in enumerate(pieces):
                    piece.request_index = order

            # 5. copy-on-write metadata, batched per metadata shard
            nodes = build_write_metadata(blob, version, base_version,
                                         build_leaf_segments(blob, pieces))
            store_span = None
            if span is not None:
                store_span = ctx.begin_detached(
                    "commit.put_nodes", cat="write", parent=span,
                    nodes=len(nodes), version=version)
            yield from self._store_nodes(blob, nodes, trace_parent=store_span)
            if store_span is not None:
                ctx.end(store_span)
            if stagings:
                # the bytes, too, are stored before the snapshot publishes
                yield from self._pieces_of(stagings)
        except Exception:
            if stagings:
                # no upload outlives the commit that failed
                yield sim.all_of(stagings)
            # a ticket held past this point must be released or publication
            # would stall for every later writer — but a partially stored
            # node set must never become reachable through later snapshots'
            # at-or-before lookups: roll it back first.  If the rollback
            # itself fails (a metadata shard is down) leave the ticket
            # assigned — a stalled publication is recoverable, a torn
            # snapshot is not.
            rolled_back = True
            if nodes is not None:
                rolled_back = yield from self._rollback_metadata(blob, nodes)
            if ticket is not None and rolled_back:
                yield from self._abort_version(blob_id, ticket[0])
            raise

        # 5b. write-through cache population: the writer keeps the leaves
        #     it built, under their exact-version keys — a read looks up
        #     leaves only, so the interior nodes are written, never cached
        primed = None
        if client.write_through_cache:
            primed = [((node.key.offset, node.key.size, version), node)
                      for node in nodes if node.is_leaf]
            if client.tiers.prime(blob_id, primed):
                client.cache_primed_nodes += len(primed)

        # 6. completion -> in-order publication at the version manager
        if defer_complete:
            if span is not None:
                # the deferred complete outlives the commit span by design:
                # flow-linked (causal, exempt from interval nesting)
                complete_span = ctx.begin_detached(
                    "commit.complete", cat="write", parent=span,
                    flow=True, version=version)
                complete_gen = self._traced_complete(
                    blob_id, version, primed, ctx, complete_span)
            else:
                complete_gen = self._complete(blob_id, version, primed)
            process = sim.process(complete_gen,
                                  name=f"{client.name}:complete:v{version}")
            self._inflight.setdefault(blob_id, []).append(process)
        else:
            yield from self._complete(blob_id, version, primed,
                                      trace_parent=span)

        bytes_written = sum(piece.length for piece in pieces)
        client.bytes_written += bytes_written
        client.writes += 1
        client.logical_writes += logical_writes
        # this commit outdates any read hint planted earlier: a default read
        # served from it would miss the snapshot just produced.  Whoever
        # synchronizes with the new publication (the coalescer's barrier, a
        # collective's closing exchange) plants a fresh one afterwards.
        client.drop_read_hint(blob_id)
        return WriteReceipt(
            blob_id=blob_id,
            version=version,
            bytes_written=bytes_written,
            chunks=len(pieces),
            metadata_nodes=len(nodes),
            logical_writes=logical_writes,
            started_at=started_at,
            finished_at=sim.now,
            leaves=primed or (),
        )

    def _traced_complete(self, blob_id: str, version: int, primed, ctx, span):
        """Run a deferred ``complete`` under its flow span (closed exactly
        when the background process finishes, success or not)."""
        try:
            result = yield from self._complete(blob_id, version, primed,
                                               trace_parent=span)
        finally:
            ctx.end(span)
        return result

    def drain(self, blob_id: str = None):
        """Join every deferred ``complete`` RPC (of one BLOB, or all of them).

        Returns the number of completions joined.  Failures propagate to the
        caller, exactly as a blocking ``complete`` would have.
        """
        if blob_id is None:
            keys = list(self._inflight)
        else:
            keys = [blob_id]
        processes: List["Process"] = []
        for key in keys:
            processes.extend(self._inflight.pop(key, []))
        if processes:
            yield self.client.cluster.sim.all_of(processes)
        return len(processes)

    # ------------------------------------------------------------------
    def _release_ticket(self, blob_id: str, ticket_process):
        """Abort the ticket of a commit whose uploads failed (if one exists).

        The ticket RPC ran concurrently with the uploads, so it may be in
        any state: still in flight (join it first), failed (nothing was
        assigned, nothing to release) or assigned (abort it at the version
        manager so publication can advance past the dead version).
        """
        if ticket_process.is_alive:
            try:
                yield ticket_process
            except Exception:
                return
        if not ticket_process.ok:
            return
        version, _base_version = ticket_process.value
        yield from self._abort_version(blob_id, version)

    def _abort_version(self, blob_id: str, version: int):
        """Release an assigned ticket at the version manager."""
        latest = yield from self._wcontrol(
            self.client.deployment.version_manager, "abort", blob_id, version)
        self.client.note_published(blob_id, latest)
        # a pending read hint predates this failed commit; by the time the
        # abort returns, versions *after* the hint may have published (e.g.
        # a peer aggregator's stripe of the same failed collective), so the
        # next default read must ask the version manager, not the hint
        self.client.drop_read_hint(blob_id)

    def _rollback_metadata(self, blob: "BlobDescriptor",
                           nodes: List["MetadataNode"]):
        """Best-effort removal of a failed write's nodes from every shard.

        Returns True only when every shard confirmed the removal — the
        precondition for safely aborting the ticket.
        """
        client = self.client
        request_size = client.cluster.config.metadata_request_size
        control_size = client.cluster.config.control_message_size
        rolled_back = True
        for index, shard_nodes in sorted(self._group_by_shard(nodes).items()):
            keys = [node.key for node in shard_nodes]
            try:
                yield from client._rpc(
                    client.deployment.metadata_providers[index], "remove_nodes",
                    len(keys) * request_size, control_size, keys)
            except Exception:
                rolled_back = False
        return rolled_back

    def _group_by_shard(self, nodes: List["MetadataNode"]) -> Dict[int, list]:
        """Group a write's nodes by the metadata shard that owns each key."""
        by_shard: Dict[int, list] = {}
        shard_count = len(self.client.deployment.metadata_providers)
        for node in nodes:
            index = PartitionedMetadataStore.partition_index(
                node.key.blob_id, node.key.offset, node.key.size, shard_count)
            by_shard.setdefault(index, []).append(node)
        return by_shard

    def _complete(self, blob_id: str, version: int, primed=None,
                  trace_parent=None):
        """Report completion; remember the returned publication watermark.

        When the returned watermark already covers this commit's version,
        the write-through entries (``primed``) are additionally offered to
        the chain's node pool — co-located readers then start warm
        without any of them fetching.  A watermark still below ``version``
        (an earlier ticket in flight) skips the offer: a pool that outlives
        this client must never hold a version nobody has seen published,
        and the nodes will be admitted the first time any co-tenant fetches
        them after publication.
        """
        latest = yield from self._wcontrol(
            self.client.deployment.version_manager, "complete", blob_id,
            version, trace_parent=trace_parent)
        self.client.note_published(blob_id, latest)
        if primed and latest >= version:
            self.client.tiers.admit_published(blob_id, primed)
        return latest

    def _store_nodes(self, blob: "BlobDescriptor", nodes: List["MetadataNode"],
                     trace_parent=None):
        """Ship the new snapshot's nodes: one ``put_nodes`` RPC per shard,
        all in parallel (mirroring the batched read path)."""
        client = self.client
        deployment = client.deployment
        by_shard = self._group_by_shard(nodes)
        node_size = client.cluster.config.metadata_node_size
        control_size = client.cluster.config.control_message_size
        client.metadata_put_rpcs += len(by_shard)
        yield client.cluster.sim.fanout(
            [client._rpc(deployment.metadata_providers[index], "put_nodes",
                         len(shard_nodes) * node_size, control_size,
                         shard_nodes, trace_parent=trace_parent)
             for index, shard_nodes in sorted(by_shard.items())])
