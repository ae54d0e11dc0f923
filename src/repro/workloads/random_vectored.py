"""Random vectored-access workload: seed-derived noncontiguous patterns.

The scenario fuzzer's workhorse pattern family, promoted from the ad-hoc
``random_pattern`` helper the conformance suites grew: every rank owns a
small set of regions that are disjoint *within* the rank (so one rank's
access is a valid ``Indexed`` view) but overlap freely *across* ranks —
exactly the territory of Thakur/Gropp/Lusk's noncontiguous MPI-IO access
classes, with the cross-rank overlap the paper's atomic-snapshot claim is
about.

Everything derives from ``(seed, shape parameters)`` through one
``random.Random`` instance consumed in a fixed order, so a workload is a
pure value: the same constructor arguments always produce the same regions
and the same fill bytes, which is what lets the fuzzer replay any run from
its seed alone.

``window`` confines every region to a sub-extent of the file — the
fuzzer's *hot-spot* hostility, where all ranks hammer the same few chunks
and cross-rank overlap (hence version-ordered conflict resolution) becomes
the common case instead of the corner case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import BenchmarkError

#: one write region: (offset, size, fill byte) — the payload is the fill
#: byte repeated, which keeps whole scenarios JSON-serializable
RegionSpec = Tuple[int, int, int]


@dataclass(frozen=True)
class RandomVectoredWorkload:
    """Per-rank random vectored accesses with cross-rank overlap.

    Parameters
    ----------
    num_ranks:
        Ranks drawing patterns.
    file_size:
        Extent regions are drawn from (exclusive upper bound).
    seed:
        Root of the pattern; same seed, same pattern, always.
    max_regions / max_region_size:
        Per-rank shape bounds (regions per rank are 1..max_regions).
    empty_rank_chance:
        Probability a rank sits a round out entirely (sparse participation,
        the empty-vector path collectives must still carry).
    window:
        Optional ``(offset, size)`` sub-extent confining every region (the
        hot-spot mode); ``None`` uses the whole file.
    """

    num_ranks: int
    file_size: int
    seed: int = 0
    max_regions: int = 4
    max_region_size: int = 1500
    empty_rank_chance: float = 0.2
    window: Optional[Tuple[int, int]] = None
    #: per-rank region specs, materialized once at construction
    _specs: Tuple[Tuple[RegionSpec, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_ranks <= 0:
            raise BenchmarkError("num_ranks must be positive")
        if self.max_regions <= 0:
            raise BenchmarkError("max_regions must be positive")
        if not (0.0 <= self.empty_rank_chance < 1.0):
            raise BenchmarkError("empty_rank_chance must be in [0, 1)")
        lo, span = (0, self.file_size) if self.window is None else self.window
        if not (0 <= lo and lo + span <= self.file_size and span > 0):
            raise BenchmarkError(
                f"window {self.window!r} outside file of {self.file_size}")
        region_cap = min(self.max_region_size, span)
        if region_cap <= 0:
            raise BenchmarkError("max_region_size must be positive")
        rng = random.Random(self.seed)
        specs: List[Tuple[RegionSpec, ...]] = []
        for rank in range(self.num_ranks):
            if self.num_ranks > 1 and rng.random() < self.empty_rank_chance:
                specs.append(())
                continue
            count = rng.randint(1, self.max_regions)
            count = min(count, max(1, span // max(1, region_cap)))
            starts = sorted(rng.sample(
                range(lo, lo + span - region_cap + 1), count))
            regions = []
            for index, offset in enumerate(starts):
                limit = (starts[index + 1] - offset if index + 1 < count
                         else region_cap)
                size = rng.randint(1, max(1, min(region_cap, limit)))
                fill = 1 + (self.seed * 7 + rank * 41 + index * 13) % 255
                regions.append((offset, size, fill))
            specs.append(tuple(regions))
        object.__setattr__(self, "_specs", tuple(specs))

    # ------------------------------------------------------------------
    def rank_specs(self, rank: int) -> List[RegionSpec]:
        """``(offset, size, fill)`` triples of one rank, offset-sorted."""
        self._validate(rank)
        return list(self._specs[rank])

    def write_pairs(self, rank: int) -> List[Tuple[int, bytes]]:
        """``(offset, payload)`` pairs of one rank's vectored write."""
        return [(offset, bytes([fill]) * size)
                for offset, size, fill in self.rank_specs(rank)]

    def read_regions(self, rank: int) -> List[Tuple[int, int]]:
        """``(offset, size)`` pairs covering the rank's own regions."""
        return [(offset, size) for offset, size, _fill in self.rank_specs(rank)]

    def halo_read_regions(self, rank: int, halo: int) -> List[Tuple[int, int]]:
        """The rank's regions grown by ``halo`` bytes on both sides.

        Grown regions reach into the neighbours' territory (ghost cells), so
        collective reads over them exercise cross-rank overlap resolution.
        Overlapping grown regions are merged so the result stays a valid
        disjoint ``Indexed`` view.
        """
        if halo < 0:
            raise BenchmarkError("halo must be non-negative")
        merged: List[Tuple[int, int]] = []
        for offset, size, _fill in self.rank_specs(rank):
            lo = max(0, offset - halo)
            hi = min(self.file_size, offset + size + halo)
            if merged and lo <= merged[-1][0] + merged[-1][1]:
                prev_lo, prev_size = merged[-1]
                merged[-1] = (prev_lo, max(prev_lo + prev_size, hi) - prev_lo)
            else:
                merged.append((lo, hi - lo))
        return merged

    # ------------------------------------------------------------------
    def _validate(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise BenchmarkError(f"rank {rank} out of range")
