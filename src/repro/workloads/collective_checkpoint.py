"""Collective checkpoint workload: interleaved block dumps, one per round.

The access pattern parallel checkpointing codes produce (and the pattern
iFast-style host-side aggregation exploits): in every checkpoint round the
ranks collectively dump one section of the shared file, each rank owning the
blocks congruent to its rank index — rank ``r`` writes blocks ``r, r+N,
r+2N, ...`` of the round's section.  Each rank's access is a noncontiguous
stride, but the *union* over ranks is one dense section: the sweet spot of
two-phase collective buffering, where a handful of aggregators can commit
the whole round as a few large contiguous stripes.

Rounds land in disjoint sections, and within a round the ranks' blocks are
disjoint too, so the final file contents are independent of commit order —
every write mode must produce byte-identical data, which the benchmark
asserts (overlapping-writer resolution is pinned by the conformance and
property suites instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import BenchmarkError


@dataclass(frozen=True)
class CollectiveCheckpointWorkload:
    """Parameters of the collective checkpoint pattern."""

    num_ranks: int
    rounds: int = 2
    blocks_per_rank: int = 4
    block_size: int = 4096

    def __post_init__(self) -> None:
        if self.num_ranks <= 0:
            raise BenchmarkError("num_ranks must be positive")
        if self.rounds <= 0:
            raise BenchmarkError("rounds must be positive")
        if self.blocks_per_rank <= 0:
            raise BenchmarkError("blocks_per_rank must be positive")
        if self.block_size <= 0:
            raise BenchmarkError("block_size must be positive")

    # ------------------------------------------------------------------
    @property
    def blocks_per_section(self) -> int:
        """Blocks one checkpoint round covers (all ranks together)."""
        return self.num_ranks * self.blocks_per_rank

    @property
    def section_size(self) -> int:
        """Bytes of one checkpoint round's section."""
        return self.blocks_per_section * self.block_size

    @property
    def file_size(self) -> int:
        """Size of the shared checkpoint file."""
        return self.rounds * self.section_size

    # ------------------------------------------------------------------
    def _fill(self, rank: int, round_index: int, slot: int) -> int:
        """Deterministic non-zero fill byte of one block."""
        return 1 + (rank * 61 + round_index * 17 + slot * 5) % 255

    def write_pairs(self, rank: int,
                    round_index: int) -> List[Tuple[int, bytes]]:
        """``(offset, payload)`` pairs of one rank's dump in one round."""
        self._validate(rank, round_index)
        base = round_index * self.section_size
        pairs = []
        for slot in range(rank, self.blocks_per_section, self.num_ranks):
            payload = bytes([self._fill(rank, round_index, slot)]) \
                * self.block_size
            pairs.append((base + slot * self.block_size, payload))
        return pairs

    def expected_contents(self) -> bytes:
        """Reference contents of the whole file after every round."""
        content = bytearray(self.file_size)
        for round_index in range(self.rounds):
            for rank in range(self.num_ranks):
                for offset, payload in self.write_pairs(rank, round_index):
                    content[offset:offset + len(payload)] = payload
        return bytes(content)

    def _validate(self, rank: int, round_index: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise BenchmarkError(f"rank {rank} out of range")
        if not 0 <= round_index < self.rounds:
            raise BenchmarkError(f"round {round_index} out of range")
