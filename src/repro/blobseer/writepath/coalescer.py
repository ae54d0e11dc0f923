"""The write coalescer: queue vectored writes, commit them as one snapshot.

Thakur et al.'s ROMIO lesson — aggregate many small noncontiguous requests
into few large operations — applied to the *control plane* of the versioned
store: ``k`` queued writes flushed together cost one ``allocate``, one
version ticket, one merged copy-on-write metadata build and one ``complete``
instead of ``k`` of each, while their payload still travels as fully
parallel uncoordinated chunk uploads.

Semantics: a flushed batch is applied in queue order (later writes win on
overlaps), so the published snapshot equals the serial application of the
queued writes — MPI atomicity simply holds at batch granularity, and ticket
order across clients is untouched because a batch takes one ordinary ticket
at flush time.  Queued writes are invisible to *every* reader (including
their own client) until flushed; :meth:`WriteCoalescer.barrier` is the
explicit flush + publication wait that restores write-visible semantics —
the hook MPI ``sync``/``close``/atomic-mode calls use.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.blobseer.writepath.batch import (
    StagedWrite,
    WriteBatch,
    require_payload,
)
from repro.core.listio import IOVector
from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blobseer.client import BlobClient
    from repro.blobseer.writepath.batch import WriteReceipt


@dataclass
class CoalescerStats:
    """Coalescing counters surfaced through the benchmark harness."""

    staged_writes: int = 0
    batches: int = 0
    coalesced_writes: int = 0
    coalesced_bytes: int = 0
    auto_flushes: int = 0
    delay_flushes: int = 0
    delay_flush_failures: int = 0

    @property
    def coalescing_factor(self) -> float:
        """Average queued writes per committed batch (1.0 = no coalescing)."""
        if not self.batches:
            return 0.0
        return self.coalesced_writes / self.batches

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict form for JSON benchmark artifacts."""
        return {**asdict(self), "coalescing_factor": self.coalescing_factor}


class WriteCoalescer:
    """Per-client write queue committing merged snapshot batches.

    ``max_batch_writes`` / ``max_batch_bytes`` bound how much one batch may
    accumulate; crossing either threshold flushes the BLOB's queue
    automatically.  ``None`` (the default) means unbounded — flushing happens
    only at explicit :meth:`flush`/:meth:`barrier` calls.

    ``flush_max_delay`` bounds *publication latency* instead of batch size:
    when set, a write entering an empty queue arms a watchdog that flushes
    whatever accumulated after that many simulated seconds — so a slow
    producer's data reaches its consumers within a bounded delay even if the
    producer never crosses a size bound or calls flush itself.  A failing
    flush re-arms the timer with exponential backoff (doubling up to
    :attr:`RETRY_BACKOFF_LIMIT` times the base delay): a permanently dead
    backend is retried at a bounded, slowing rate instead of spinning
    allocate/abort round-trips every period — and when the backend comes
    back, the next retry publishes without anyone calling flush, so the
    latency bound degrades under faults but always recovers.
    """

    #: largest backoff multiplier a failing watchdog flush reaches
    RETRY_BACKOFF_LIMIT = 64

    def __init__(self, client: "BlobClient", *,
                 max_batch_writes: Optional[int] = None,
                 max_batch_bytes: Optional[int] = None,
                 flush_max_delay: Optional[float] = None):
        if max_batch_writes is not None and max_batch_writes <= 0:
            raise StorageError(
                f"max_batch_writes must be positive or None, got {max_batch_writes}")
        if max_batch_bytes is not None and max_batch_bytes <= 0:
            raise StorageError(
                f"max_batch_bytes must be positive or None, got {max_batch_bytes}")
        if flush_max_delay is not None and flush_max_delay <= 0:
            raise StorageError(
                f"flush_max_delay must be positive or None, got {flush_max_delay}")
        self.client = client
        self.max_batch_writes = max_batch_writes
        self.max_batch_bytes = max_batch_bytes
        self.flush_max_delay = flush_max_delay
        self.stats = CoalescerStats()
        self._pending: Dict[str, List[StagedWrite]] = {}
        # running queued-payload byte counters (kept in sync with _pending
        # so the byte-bound check is O(1) per enqueue)
        self._pending_bytes: Dict[str, int] = {}
        # highest snapshot version committed through this coalescer, per blob
        self._last_version: Dict[str, int] = {}
        # per-blob watchdog generation: armed when a write enters an empty
        # queue; a newer arm invalidates older timers so no batch is ever
        # flushed by a timer that predates it
        self._watchdog_timer: Dict[str, object] = {}
        # per-blob flush-in-progress gate: a batch stays in ``_pending``
        # until its commit's round-trips return, so a second flush entering
        # that window (watchdog vs explicit, in either order) must wait for
        # the first instead of committing the same batch twice
        self._flush_gates: Dict[str, object] = {}
        # (writes, bytes) of the batch currently committing, per blob —
        # subtracted from the batch-bound checks so writes enqueued during
        # the commit window don't trigger premature undersized auto-flushes
        self._inflight_batch: Dict[str, tuple] = {}
        # consecutive failed flush attempts per blob (bounds watchdog re-arms)
        self._flush_failures: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def pending_writes(self, blob_id: Optional[str] = None) -> int:
        """Queued-but-uncommitted writes (of one BLOB, or all of them)."""
        if blob_id is not None:
            return len(self._pending.get(blob_id, []))
        return sum(len(staged) for staged in self._pending.values())

    def pending_bytes(self, blob_id: Optional[str] = None) -> int:
        """Payload bytes sitting in the queue."""
        if blob_id is not None:
            return self._pending_bytes.get(blob_id, 0)
        return sum(self._pending_bytes.values())

    def last_committed_version(self, blob_id: str) -> int:
        """Highest snapshot version committed through this coalescer.

        Committed is not published: until the client's publication watermark
        reaches this version, read paths that promise read-your-writes must
        fence through :meth:`barrier`.
        """
        return self._last_version.get(blob_id, 0)

    def _should_flush(self, blob_id: str) -> bool:
        """True when the BLOB's queue crossed a configured batch bound.

        Writes of a batch whose commit is still in flight remain queued but
        are already spoken for — they don't count toward the *next* batch's
        bound.
        """
        committing_writes, committing_bytes = \
            self._inflight_batch.get(blob_id, (0, 0))
        if self.max_batch_writes is not None \
                and self.pending_writes(blob_id) - committing_writes \
                >= self.max_batch_writes:
            return True
        return self.max_batch_bytes is not None \
            and self.pending_bytes(blob_id) - committing_bytes \
            >= self.max_batch_bytes

    # ------------------------------------------------------------------
    def enqueue(self, blob_id: str, vector: IOVector):
        """Queue one vectored write; auto-flush if a batch bound is crossed.

        Generator method (validation may fetch the BLOB descriptor, an
        auto-flush issues RPCs).  Returns the
        :class:`~repro.blobseer.writepath.batch.StagedWrite` handle, whose
        ``receipt`` is filled when the batch commits.
        """
        require_payload(vector)
        # validate now, like an immediate write would: an out-of-range
        # request must fail at its own call site, not poison the whole
        # merged batch at some later flush point
        blob = yield from self.client._descriptor(blob_id)
        for request in vector:
            if request.size:
                blob.validate_access(request.offset, request.size)
        staged = StagedWrite(blob_id=blob_id, vector=vector,
                             index=self.stats.staged_writes)
        queue_was_empty = not self._pending.get(blob_id)
        self._pending.setdefault(blob_id, []).append(staged)
        self._pending_bytes[blob_id] = \
            self._pending_bytes.get(blob_id, 0) + vector.total_bytes()
        self.stats.staged_writes += 1
        if self._should_flush(blob_id):
            self.stats.auto_flushes += 1
            yield from self.flush(blob_id)
        elif queue_was_empty and self.flush_max_delay is not None:
            self._arm_watchdog(blob_id)
        return staged

    def _arm_watchdog(self, blob_id: str,
                      delay: Optional[float] = None) -> None:
        """Start the max-delay timer (``delay`` overrides for retry backoff).

        The timer is a cancellable :class:`~repro.simengine.Timer`, so an
        explicit/auto flush in the meantime disarms it in O(1) (lazy queue
        removal) instead of leaving a generation-checked process to wake up
        and discover it has nothing to do — the watchdog used to be the
        scheduler's single largest source of dead events.
        """
        self._invalidate_watchdog(blob_id)
        sim = self.client.cluster.sim
        self._watchdog_timer[blob_id] = sim.call_later(
            delay if delay is not None else self.flush_max_delay,
            self._watchdog_fired, blob_id)

    def _invalidate_watchdog(self, blob_id: str) -> None:
        """Cancel the BLOB's armed timer (if any): a flush that ran in the
        meantime means a fresh batch gets its own timer, so no batch is ever
        cut short."""
        timer = self._watchdog_timer.pop(blob_id, None)
        if timer is not None:
            timer.cancel()

    def _watchdog_fired(self, blob_id: str) -> None:
        """Timer callback: flush the queue whose oldest write waited out."""
        self._watchdog_timer.pop(blob_id, None)
        if not self._pending.get(blob_id):
            return
        self.stats.delay_flushes += 1
        self.client.cluster.sim.process(
            self._watchdog_flush(blob_id),
            name=f"{self.client.name}:flush-timer:{blob_id}")

    def _watchdog_flush(self, blob_id: str):
        try:
            # a watchdog flush runs outside the rank mainline: its batch
            # span must be a root, never parented under whatever the
            # mainline happens to have open at firing time
            yield from self.flush(blob_id, _mainline=False)
        except Exception:
            # a background flush has nobody to raise to; the queue stays
            # staged (flush keeps failed batches and re-arms the timer, so
            # the bound survives transient failures and the next explicit
            # flush/barrier surfaces a persistent one)
            self.stats.delay_flush_failures += 1

    def flush(self, blob_id: Optional[str] = None, *, _mainline: bool = True):
        """Commit the queued writes (of one BLOB, or all) as merged snapshots.

        One batch per BLOB: one ``allocate``, one ticket, one merged metadata
        build, one deferred ``complete``.  Returns the
        commit receipts.  Publication may still be in flight afterwards —
        use :meth:`barrier` for read-after-write.

        A failed commit leaves its batch staged: the caller can recover
        (e.g. after a provider comes back) and flush again without losing
        queued data.

        ``_mainline`` marks whether the caller runs in the rank's mainline
        flow (explicit flush/barrier/auto-flush) — tracing then parents the
        batch span under the current mainline span; a watchdog flush runs
        concurrently and gets a root span instead.
        """
        if blob_id is None:
            blob_ids = [key for key, staged in self._pending.items() if staged]
        else:
            blob_ids = [blob_id]
        ctx = self.client.trace_ctx
        receipts: List["WriteReceipt"] = []
        for key in blob_ids:
            # another flush of this BLOB (a watchdog's, or another process's)
            # may be mid-commit; wait it out, then commit whatever remains
            while key in self._flush_gates:
                yield self._flush_gates[key]
            staged = self._pending.get(key, [])
            if not staged:
                continue
            # cancel armed timers before committing: the staged writes stay
            # queued until the commit's round-trips finish, and a watchdog
            # firing in that window would commit the same batch twice
            self._invalidate_watchdog(key)
            batch = WriteBatch(key, tuple(staged))
            gate = self.client.cluster.sim.event()
            self._flush_gates[key] = gate
            self._inflight_batch[key] = (len(batch), batch.total_bytes())
            batch_span = None
            if ctx is not None:
                batch_span = ctx.begin_detached(
                    "coalescer.batch", cat="write",
                    parent=ctx.current if _mainline else None,
                    blob=key, writes=len(batch), bytes=batch.total_bytes())
            try:
                receipt = yield from self.client.writepath.commit(
                    key, batch.merged_vector(), logical_writes=len(batch),
                    defer_complete=True, trace_parent=batch_span)
            except Exception:
                # the batch stays staged (retryable); keep its latency bound
                # with backed-off retries — slowing under a persistent fault,
                # still guaranteed to publish once the backend recovers
                failures = self._flush_failures.get(key, 0) + 1
                self._flush_failures[key] = failures
                if self.flush_max_delay is not None and self._pending.get(key):
                    # first retry at the base delay, then doubling to the cap
                    backoff = min(2 ** (failures - 1), self.RETRY_BACKOFF_LIMIT)
                    self._arm_watchdog(key, self.flush_max_delay * backoff)
                raise
            finally:
                if batch_span is not None:
                    ctx.end(batch_span)
                del self._flush_gates[key]
                del self._inflight_batch[key]
                gate.succeed()
            self._flush_failures.pop(key, None)
            # the commit succeeded: drop exactly the writes it covered (an
            # enqueue racing with the commit stays queued for the next batch,
            # and gets its own delay window)
            queue = self._pending.get(key, [])
            del queue[:len(batch)]
            self._pending_bytes[key] = \
                self._pending_bytes.get(key, 0) - batch.total_bytes()
            if queue and self.flush_max_delay is not None:
                self._arm_watchdog(key)
            batch.resolve(receipt)
            self._last_version[key] = max(
                receipt.version, self._last_version.get(key, 0))
            self.stats.batches += 1
            self.stats.coalesced_writes += len(batch)
            self.stats.coalesced_bytes += receipt.bytes_written
            receipts.append(receipt)
        return receipts

    def barrier(self, blob_id: Optional[str] = None):
        """Flush, join deferred completions, wait for publication.

        After a barrier every write queued before it is visible to any
        reader — the atomic barrier MPI ``sync``/``close`` map onto.
        Returns the receipts of the batches this call flushed.
        """
        receipts = yield from self.flush(blob_id)
        yield from self.client.writepath.drain(blob_id)
        if blob_id is None:
            # a global fence covers hint-only BLOBs too: a hint may exist
            # for a BLOB this coalescer never committed to (planted by a
            # collective commit on a non-aggregator client)
            targets = sorted(set(self._last_version)
                             | set(self.client.hinted_blobs()))
        else:
            targets = [blob_id]
        flushed = {receipt.blob_id for receipt in receipts}
        for key in targets:
            # a barrier is a visibility fence: any read hint taken before it
            # must not survive (it could hide another writer's synced data)
            self.client.drop_read_hint(key)
            version = self._last_version.get(key, 0)
            # the deferred complete already told us the publication watermark
            # in most cases; only lag behind it costs a wait round-trip
            if version > self.client.version_hints.get(key, 0):
                yield from self.client.wait_published(key, version)
            if key in flushed:
                # this barrier just published this client's own writes: its
                # next read may start from the known watermark without asking
                # the version manager again (read-your-writes for free)
                self.client.offer_read_hint(key)
        return receipts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<WriteCoalescer pending={self.pending_writes()} "
                f"batches={self.stats.batches} "
                f"factor={self.stats.coalescing_factor:.2f}>")
