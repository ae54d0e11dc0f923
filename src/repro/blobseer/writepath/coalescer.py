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

    A BLOB's queue grows until one of MPI's flush points commits it: an
    explicit :meth:`flush`/:meth:`barrier` (``sync``, ``close``, a read or
    an atomic-mode write on the handle), an immediate write to the same
    BLOB, or a collective on it.  Only the rank's own flow reaches those
    points, so one client never has two flushes of a BLOB in flight.
    """

    def __init__(self, client: "BlobClient"):
        self.client = client
        self.stats = CoalescerStats()
        self._pending: Dict[str, List[StagedWrite]] = {}
        # highest snapshot version committed through this coalescer, per blob
        self._last_version: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def pending_writes(self, blob_id: Optional[str] = None) -> int:
        """Queued-but-uncommitted writes (of one BLOB, or all of them)."""
        if blob_id is not None:
            return len(self._pending.get(blob_id, []))
        return sum(len(staged) for staged in self._pending.values())

    def last_committed_version(self, blob_id: str) -> int:
        """Highest snapshot version committed through this coalescer.

        Committed is not published: until the client's publication watermark
        reaches this version, read paths that promise read-your-writes must
        fence through :meth:`barrier`.
        """
        return self._last_version.get(blob_id, 0)

    # ------------------------------------------------------------------
    def enqueue(self, blob_id: str, vector: IOVector):
        """Queue one vectored write for the BLOB's next flush.

        Generator method (validation may fetch the BLOB descriptor).
        Returns the :class:`~repro.blobseer.writepath.batch.StagedWrite`
        handle, whose ``receipt`` is filled when the batch commits.
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
        self._pending.setdefault(blob_id, []).append(staged)
        self.stats.staged_writes += 1
        return staged

    def flush(self, blob_id: Optional[str] = None):
        """Commit the queued writes (of one BLOB, or all) as merged snapshots.

        One batch per BLOB: one ``allocate``, one ticket, one merged metadata
        build, one deferred ``complete``.  Returns the
        commit receipts.  Publication may still be in flight afterwards —
        use :meth:`barrier` for read-after-write.

        A failed commit leaves its batch staged: the next flush point
        retries it (e.g. after a provider comes back) without losing
        queued data.
        """
        if blob_id is None:
            blob_ids = [key for key, staged in self._pending.items() if staged]
        else:
            blob_ids = [blob_id]
        ctx = self.client.trace_ctx
        receipts: List["WriteReceipt"] = []
        for key in blob_ids:
            staged = self._pending.get(key)
            if not staged:
                continue
            batch = WriteBatch(key, tuple(staged))
            batch_span = None
            if ctx is not None:
                batch_span = ctx.begin_detached(
                    "coalescer.batch", cat="write", parent=ctx.current,
                    blob=key, writes=len(batch), bytes=batch.total_bytes())
            try:
                receipt = yield from self.client.writepath.commit(
                    key, batch.merged_vector(), logical_writes=len(batch),
                    defer_complete=True, trace_parent=batch_span)
            finally:
                if batch_span is not None:
                    ctx.end(batch_span)
            del staged[:len(batch)]
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
