"""The write-pipeline subsystem: coalesced snapshots and overlapped commits.

The control-plane cost of a vectored write in stock BlobSeer is a fixed
ladder of blocking round-trips — ``allocate`` → uploads → ``assign_ticket``
→ per-shard ``put_nodes`` → ``complete`` — paid once *per write*.  This
package removes that ladder from the client's critical path the same way the
metadata read path removed per-node ``get_node`` round-trips:

* :class:`~repro.blobseer.writepath.coalescer.WriteCoalescer` queues a
  client's pending vectored writes and merges them into one snapshot batch:
  one ``allocate``, one version ticket, one merged copy-on-write metadata
  build.  Queue order is preserved, so a coalesced batch equals the serial
  application of its writes — the MPI-atomic unit simply grows from one
  vector to one batch.  A queue is committed only at MPI's flush points
  (``sync``, ``close``, a conflicting access), where
  :meth:`~WriteCoalescer.flush` or :meth:`~WriteCoalescer.barrier` runs;
  nothing flushes it by size or by age.
* :class:`~repro.blobseer.writepath.engine.PipelinedCommitEngine` executes a
  commit with overlap: the version ticket is acquired *while* chunk uploads
  are in flight, the per-shard ``put_nodes`` RPCs go out in parallel, and
  back-to-back batches defer their ``complete`` RPC off the critical path
  (publication still happens strictly in ticket order at the version
  manager).
* Write-through cache population: a writer already holds every metadata node
  it publishes, so the engine inserts them into the client's
  :class:`~repro.blobseer.metadata.cache.MetadataNodeCache` and records the
  published version in the client's version-hint table — read-after-write is
  warm from the very first read.
"""

from repro.blobseer.writepath.batch import (
    StagedWrite,
    WriteBatch,
    WriteReceipt,
    merge_write_vectors,
)
from repro.blobseer.writepath.coalescer import CoalescerStats, WriteCoalescer
from repro.blobseer.writepath.engine import PipelinedCommitEngine

__all__ = [
    "StagedWrite",
    "WriteBatch",
    "WriteReceipt",
    "merge_write_vectors",
    "CoalescerStats",
    "WriteCoalescer",
    "PipelinedCommitEngine",
]
