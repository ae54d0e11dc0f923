"""Queued-small-writes workload: trains of small vectored writes per rank.

Checkpointing codes and tile writers rarely emit one big vector: they issue
*many small* noncontiguous writes back to back (per variable, per row block,
per timestep slice) and only need them visible at a sync point.  This
workload models that pattern for the write-pipeline benchmarks: every client
owns a disjoint span of the shared file and issues ``writes_per_client``
vectored writes of ``regions_per_write`` small regions each.

The regions of consecutive writes *interleave* in file order (write ``w``
takes every ``writes_per_client``-th slot starting at ``w``), so the writes
of one client touch overlapping segment-tree paths — exactly the case where
coalescing them into one snapshot collapses the copy-on-write metadata as
well as the control round-trips.  Client spans are disjoint, which keeps the
final file contents independent of cross-client commit order: every write
mode must produce byte-identical data, so the benchmark can assert
equivalence (overlapping-writer semantics are covered by the atomicity
property tests instead).

An optional ``hole_size`` leaves never-written gaps between regions, keeping
zero-fill resolution in the measured read-back path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import BenchmarkError


@dataclass(frozen=True)
class QueuedWritesWorkload:
    """Parameters of the queued-small-writes pattern."""

    num_clients: int
    writes_per_client: int = 8
    regions_per_write: int = 4
    region_size: int = 8 * 1024
    hole_size: int = 0

    def __post_init__(self) -> None:
        if self.num_clients <= 0:
            raise BenchmarkError("num_clients must be positive")
        if self.writes_per_client <= 0:
            raise BenchmarkError("writes_per_client must be positive")
        if self.regions_per_write <= 0:
            raise BenchmarkError("regions_per_write must be positive")
        if self.region_size <= 0:
            raise BenchmarkError("region_size must be positive")
        if self.hole_size < 0:
            raise BenchmarkError("hole_size must be non-negative")

    # ------------------------------------------------------------------
    @property
    def slot_size(self) -> int:
        """One region plus its trailing hole."""
        return self.region_size + self.hole_size

    @property
    def slots_per_client(self) -> int:
        """Total regions one client writes over all its queued writes."""
        return self.writes_per_client * self.regions_per_write

    @property
    def client_span(self) -> int:
        """Bytes of the file owned by one client (regions plus holes)."""
        return self.slots_per_client * self.slot_size

    @property
    def file_size(self) -> int:
        """Size of the shared file."""
        return self.num_clients * self.client_span

    # ------------------------------------------------------------------
    def write_offsets(self, rank: int, write_index: int) -> List[int]:
        """File offsets of the regions of one queued write.

        Write ``w`` of a client takes slots ``w, w + writes_per_client,
        w + 2*writes_per_client, ...`` inside the client's span, so
        consecutive writes interleave in file order.
        """
        self._validate(rank, write_index)
        base = rank * self.client_span
        return [base + (i * self.writes_per_client + write_index) * self.slot_size
                for i in range(self.regions_per_write)]

    def write_pairs(self, rank: int, write_index: int) -> List[Tuple[int, bytes]]:
        """``(offset, payload)`` pairs of one queued write (deterministic)."""
        pairs = []
        for region, offset in enumerate(self.write_offsets(rank, write_index)):
            fill = 1 + (rank * 131 + write_index * 17 + region * 7) % 255
            pairs.append((offset, bytes([fill]) * self.region_size))
        return pairs

    def client_write_vectors(self, rank: int) -> List[List[Tuple[int, bytes]]]:
        """Every queued write of one client, in issue order."""
        return [self.write_pairs(rank, write_index)
                for write_index in range(self.writes_per_client)]

    def read_pairs(self, rank: int) -> List[Tuple[int, int]]:
        """The read-back access: one whole-span range per client.

        Spans include the holes, so the read path resolves both written
        segments and zero-filled gaps.
        """
        if not 0 <= rank < self.num_clients:
            raise BenchmarkError(f"rank {rank} out of range")
        return [(rank * self.client_span, self.client_span)]

    def total_write_bytes(self) -> int:
        """Payload bytes issued by all clients together."""
        return self.num_clients * self.slots_per_client * self.region_size

    def _validate(self, rank: int, write_index: int) -> None:
        if not 0 <= rank < self.num_clients:
            raise BenchmarkError(f"rank {rank} out of range")
        if not 0 <= write_index < self.writes_per_client:
            raise BenchmarkError(f"write index {write_index} out of range")
