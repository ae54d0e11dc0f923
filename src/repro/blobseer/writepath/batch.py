"""Pure batch algebra of the write pipeline (no simulation dependencies).

A *staged* write is a vectored write a client has queued but not yet
committed; a *batch* is an ordered group of staged writes that will be
published as one snapshot.  Merging is nothing more than concatenating the
writes' requests in queue order: within one
:class:`~repro.core.listio.IOVector` later requests win on overlapping
bytes, which is exactly the serial application of the queued writes — so a
coalesced batch is byte-identical to committing its writes one by one, minus
the intermediate snapshots nobody was promised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.listio import IOVector
from repro.errors import StorageError


class WriteReceipt:
    """What a committed vectored write (or write batch) returns to its caller."""

    __slots__ = ("blob_id", "version", "bytes_written", "chunks", "metadata_nodes",
                 "logical_writes", "started_at", "finished_at", "leaves")

    def __init__(self, blob_id: str, version: int, bytes_written: int,
                 chunks: int, metadata_nodes: int,
                 started_at: float, finished_at: float,
                 logical_writes: int = 1, leaves=()):
        self.blob_id = blob_id
        self.version = version
        self.bytes_written = bytes_written
        self.chunks = chunks
        self.metadata_nodes = metadata_nodes
        #: how many application writes this snapshot carries: a coalesced
        #: batch's queued writes, a collective stripe's ranks (1 = neither)
        self.logical_writes = logical_writes
        self.started_at = started_at
        self.finished_at = finished_at
        #: the write-through entries ``((offset, size, version), leaf)`` the
        #: commit primed its tiers with (empty without write-through)
        self.leaves = leaves

    @property
    def elapsed(self) -> float:
        """Simulated duration of the commit."""
        return self.finished_at - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<WriteReceipt {self.blob_id} v{self.version} "
                f"{self.bytes_written}B writes={self.logical_writes} "
                f"in {self.elapsed:.6f}s>")


@dataclass
class AheadWrite:
    """A write placed whole and uploaded part by part, ahead of its commit.

    Its writer knew the write's shape before it held the bytes (a collective
    aggregator reads it off the access descriptions) and had every part
    placed by one ``allocate``: ``placed[k]`` is part ``k``'s ``(unit_sizes,
    providers)`` — the stripe units it declared and where they go.
    ``stagings`` are the commit engine's background processes uploading the
    parts that have arrived; the last part is the commit's own vector.
    ``parts[k]`` is the event staging ``k`` fires with its placed pieces
    before its upload starts (or with the error that kept it from placing
    them) — what the commit builds the metadata from while the bytes are on
    their way.  ``abandoned`` is set when the write's commit fails or its
    writer gives it up: what its stagings upload from then on is not kept in
    the client's chunk cache.
    """

    placed: List[Tuple[List[int], List[str]]]
    stagings: list = field(default_factory=list)
    parts: list = field(default_factory=list)
    abandoned: bool = False


def require_payload(vector: IOVector,
                    ahead: Optional[AheadWrite] = None) -> None:
    """Reject a write with nothing to publish.

    ``vector`` must carry payload requests — or be empty when every part of
    the write that arrived was already staged ``ahead``.
    """
    if not (vector.is_write if len(vector) else ahead and ahead.stagings):
        raise StorageError("a vectored write needs at least one payload request")


def merge_write_vectors(vectors: Sequence[IOVector]) -> IOVector:
    """Concatenate write vectors in order into one vector (later writes win).

    The result applied as a single snapshot equals applying the input vectors
    serially in list order, because intra-vector overlap resolution is
    already "last request wins".
    """
    if not vectors:
        raise StorageError("merge_write_vectors() needs at least one vector")
    requests = []
    for vector in vectors:
        if not vector.is_write or len(vector) == 0:
            raise StorageError("only non-empty write vectors can be merged")
        requests.extend(vector)
    return IOVector(requests)


@dataclass
class StagedWrite:
    """One queued vectored write awaiting its batch commit.

    ``receipt`` is filled in when the batch holding this write is flushed;
    until then the write is invisible to every reader (including its own
    client — use the coalescer's barrier for read-after-write).
    """

    blob_id: str
    vector: IOVector
    index: int
    receipt: Optional[WriteReceipt] = None

    @property
    def committed(self) -> bool:
        """True once the write's batch has been committed as a snapshot."""
        return self.receipt is not None

    @property
    def version(self) -> int:
        """Snapshot version the write landed in (its batch's version)."""
        if self.receipt is None:
            raise StorageError(f"staged write #{self.index} is not committed yet")
        return self.receipt.version


@dataclass
class WriteBatch:
    """An ordered group of staged writes committed as one snapshot."""

    blob_id: str
    staged: Tuple[StagedWrite, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.staged = tuple(self.staged)
        if not self.staged:
            raise StorageError("a write batch needs at least one staged write")
        for write in self.staged:
            if write.blob_id != self.blob_id:
                raise StorageError(
                    f"staged write for {write.blob_id!r} cannot join a "
                    f"batch for {self.blob_id!r}")

    def __len__(self) -> int:
        """Application writes the batch coalesces."""
        return len(self.staged)

    def merged_vector(self) -> IOVector:
        """The batch as one write vector (queue order, later writes win)."""
        return merge_write_vectors([write.vector for write in self.staged])

    def total_bytes(self) -> int:
        """Payload bytes over all staged writes (before overlap resolution)."""
        return sum(write.vector.total_bytes() for write in self.staged)

    def resolve(self, receipt: WriteReceipt) -> None:
        """Attach the commit receipt to every staged write of the batch."""
        for write in self.staged:
            write.receipt = receipt
