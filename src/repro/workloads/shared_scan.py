"""Node-local shared-cache workload: independent readers on shared nodes.

The access shapes that separate the cache tiers of the node-local shared
metadata cache and exercise its eviction rule:

``identical``
    Every client reads the *same* section of the dump in every round (a
    different section per round).  Co-located clients resolve identical
    metadata lookups, so with a shared tier only the node's first toucher
    fetches — metadata RPCs per logical read approach ``1 / ranks_per_node``
    of the private-cache baseline.  This is the "parallel analysis processes
    scanning one dump" pattern.

``streaming``
    Every client scans its *own* fresh section each round and never revisits
    a leaf — zero leaf reuse, but every traversal still descends through the
    same upper tree levels.  Under a small shared-cache capacity this is the
    pattern the pool's eviction rule is for: plain LRU would let the leaf
    stream flush the shared upper levels, the rule keeps them and sheds the
    deepest entries first.

Contents are deterministic (a per-block byte pattern), so every read's
expected bytes are known in closed form and all cache configurations must
return byte-identical data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import BenchmarkError

PATTERNS = ("identical", "streaming")


@dataclass(frozen=True)
class SharedScanWorkload:
    """Parameters of the independent-scan pattern."""

    num_clients: int
    rounds: int = 4
    blocks_per_round: int = 8
    block_size: int = 4096
    pattern: str = "identical"

    def __post_init__(self) -> None:
        if self.num_clients <= 0:
            raise BenchmarkError("num_clients must be positive")
        if self.rounds <= 0 or self.blocks_per_round <= 0 \
                or self.block_size <= 0:
            raise BenchmarkError("rounds/blocks/block_size must be positive")
        if self.pattern not in PATTERNS:
            raise BenchmarkError(
                f"unknown pattern {self.pattern!r}; choose from {PATTERNS}")

    # ------------------------------------------------------------------
    @property
    def section_size(self) -> int:
        """Bytes of one scan section."""
        return self.blocks_per_round * self.block_size

    @property
    def num_sections(self) -> int:
        """Sections the file holds (streaming needs one per client-round)."""
        if self.pattern == "identical":
            return self.rounds
        return self.rounds * self.num_clients

    @property
    def file_size(self) -> int:
        """Size of the shared dump."""
        return self.num_sections * self.section_size

    # ------------------------------------------------------------------
    def section_index(self, client: int, round_index: int) -> int:
        """Which section one client scans in one round."""
        self._validate(client, round_index)
        if self.pattern == "identical":
            return round_index
        return round_index * self.num_clients + client

    def read_pairs(self, client: int,
                   round_index: int) -> List[Tuple[int, int]]:
        """``(offset, size)`` pairs of one client's scan in one round."""
        base = self.section_index(client, round_index) * self.section_size
        return [(base, self.section_size)]

    def expected_contents(self) -> bytes:
        """Reference contents of the whole dump (per-block byte pattern)."""
        return b"".join(bytes([(index * 31 + 7) % 251 + 1]) * self.block_size
                        for index in range(self.num_sections
                                           * self.blocks_per_round))

    def expected_pieces(self, client: int, round_index: int) -> bytes:
        """The bytes one client's scan must return, concatenated."""
        content = self.expected_contents()
        return b"".join(content[offset:offset + size]
                        for offset, size in self.read_pairs(client,
                                                            round_index))

    def total_read_bytes(self) -> int:
        """Bytes fetched over all clients and rounds."""
        return self.num_clients * self.rounds * self.section_size

    def _validate(self, client: int, round_index: int) -> None:
        if not 0 <= client < self.num_clients:
            raise BenchmarkError(f"client {client} out of range")
        if not 0 <= round_index < self.rounds:
            raise BenchmarkError(f"round {round_index} out of range")
