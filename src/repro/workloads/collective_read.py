"""Collective read workload: interleaved block scans over a shared dump.

The read-side mirror of :mod:`repro.workloads.collective_checkpoint` — the
access pattern parallel analysis/restart codes produce: the shared file
holds one dense section per round (written earlier by a checkpoint), and in
every scan round the ranks collectively read that round's section back,
each rank fetching the blocks congruent to its rank index — rank ``r``
reads blocks ``r, r+N, r+2N, ...``.  Each rank's access is a noncontiguous
stride, but the *union* over ranks is one dense section: the sweet spot of
aggregated metadata resolution, where a handful of resolver ranks can walk
the section's segment tree once on behalf of the whole group.

``halo_blocks`` adds read overlap across ranks (each rank also reads that
many of the following ranks' blocks, ghost-cell style), so the resolver-side
deduplication of shared extents is exercised too.  The file contents are
those of the matching :class:`~repro.workloads.collective_checkpoint.
CollectiveCheckpointWorkload`, so every read's expected bytes are known in
closed form and every read mode must return byte-identical data.

``hole_every`` makes the dump *sparse*: every ``hole_every``-th block slot
is never written and reads back as zeros — the shape that exercises
zero-extent elision in the collective read scatter (resolvers ship hole
descriptors instead of literal zero bytes).  :meth:`seed_pairs` yields the
write vector that produces exactly this sparse dump, and :meth:`is_hole`
names the slots a byte-identity oracle must expect zeros in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import BenchmarkError
from repro.workloads.collective_checkpoint import CollectiveCheckpointWorkload


@dataclass(frozen=True)
class CollectiveReadWorkload:
    """Parameters of the collective scan pattern."""

    num_ranks: int
    rounds: int = 2
    blocks_per_rank: int = 4
    block_size: int = 4096
    #: extra blocks each rank reads past its own (overlap across ranks)
    halo_blocks: int = 0
    #: sparseness: when > 0, every ``hole_every``-th block slot of each
    #: section is never written (reads back as zeros); 0 = dense dump
    hole_every: int = 0

    def __post_init__(self) -> None:
        if self.halo_blocks < 0:
            raise BenchmarkError("halo_blocks must be non-negative")
        if self.hole_every < 0:
            raise BenchmarkError("hole_every must be non-negative")
        if self.hole_every == 1:
            raise BenchmarkError(
                "hole_every=1 would leave the whole file unwritten")
        # delegate the shared-parameter validation to the content workload
        self.content_workload()

    # ------------------------------------------------------------------
    def content_workload(self) -> CollectiveCheckpointWorkload:
        """The checkpoint workload whose dump this workload scans."""
        return CollectiveCheckpointWorkload(
            num_ranks=self.num_ranks,
            rounds=self.rounds,
            blocks_per_rank=self.blocks_per_rank,
            block_size=self.block_size,
        )

    @property
    def blocks_per_section(self) -> int:
        """Blocks one scan round covers (all ranks together)."""
        return self.num_ranks * self.blocks_per_rank

    @property
    def section_size(self) -> int:
        """Bytes of one round's section."""
        return self.blocks_per_section * self.block_size

    @property
    def file_size(self) -> int:
        """Size of the shared file."""
        return self.rounds * self.section_size

    # ------------------------------------------------------------------
    def read_pairs(self, rank: int,
                   round_index: int) -> List[Tuple[int, int]]:
        """``(offset, size)`` pairs of one rank's scan in one round.

        The rank's own interleaved blocks plus ``halo_blocks`` trailing
        neighbour blocks per own block (clipped to the section), merged so
        the pairs stay disjoint and sorted — the shape an ``Indexed``
        filetype needs.
        """
        self._validate(rank, round_index)
        base = round_index * self.section_size
        slots = set()
        for slot in range(rank, self.blocks_per_section, self.num_ranks):
            slots.add(slot)
            for halo in range(1, self.halo_blocks + 1):
                if slot + halo < self.blocks_per_section:
                    slots.add(slot + halo)
        pairs: List[Tuple[int, int]] = []
        for slot in sorted(slots):
            offset = base + slot * self.block_size
            if pairs and pairs[-1][0] + pairs[-1][1] == offset:
                pairs[-1] = (pairs[-1][0], pairs[-1][1] + self.block_size)
            else:
                pairs.append((offset, self.block_size))
        return pairs

    def is_hole(self, slot: int) -> bool:
        """Whether a section-relative block slot is never written."""
        return (self.hole_every > 0
                and slot % self.hole_every == self.hole_every - 1)

    def seed_pairs(self) -> List[Tuple[int, bytes]]:
        """The ``(offset, payload)`` write vector producing the (sparse) dump.

        Dense dumps yield one pair covering the whole file; sparse ones skip
        the hole slots, with adjacent written blocks merged into runs.
        """
        content = self.content_workload().expected_contents()
        if self.hole_every <= 0:
            return [(0, content)]
        pairs: List[Tuple[int, bytes]] = []
        for round_index in range(self.rounds):
            base = round_index * self.section_size
            for slot in range(self.blocks_per_section):
                if self.is_hole(slot):
                    continue
                offset = base + slot * self.block_size
                payload = content[offset:offset + self.block_size]
                if pairs and pairs[-1][0] + len(pairs[-1][1]) == offset:
                    pairs[-1] = (pairs[-1][0], pairs[-1][1] + payload)
                else:
                    pairs.append((offset, payload))
        return pairs

    def _validate(self, rank: int, round_index: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise BenchmarkError(f"rank {rank} out of range")
        if not 0 <= round_index < self.rounds:
            raise BenchmarkError(f"round {round_index} out of range")
