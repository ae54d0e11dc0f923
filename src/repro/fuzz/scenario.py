"""Scenario descriptions: the fuzzer's JSON-serializable run blueprints.

A :class:`Scenario` is a pure value derived entirely from one seed: the
cluster shape, the deployment shape, an ordered list of I/O phases and the
injected hostility.  Everything in it is JSON-serializable — workload
payloads are fill-byte runs, so a phase stores parameters, never bytes —
which is what lets the fuzzer dump a flagged run's exact blueprint next to
its seed and rebuild it byte-identically on replay.

Workload families (``PhaseSpec.workload["family"]``):

* ``"random"``     — :class:`~repro.workloads.random_vectored.
  RandomVectoredWorkload`: disjoint within a rank, overlapping across
  ranks, optional hot-spot window;
* ``"checkpoint"`` — :class:`~repro.workloads.collective_checkpoint.
  CollectiveCheckpointWorkload` (one round): interleaved disjoint blocks,
  the pattern whose bytes are order-independent;
* ``"overlap"``    — :class:`~repro.workloads.overlap_stress.
  OverlapStressWorkload`: deliberately overlapping neighbour regions, the
  paper's Experiment-1 hostility;
* ``"storm"``      — :class:`~repro.workloads.shared_scan.
  SharedScanWorkload` (identical pattern, one round): every rank reads
  the *same* extent in the same disjoint slices — maximal cross-rank
  metadata overlap, the cooperative peer tier's worst concurrency case
  (used by ``peer_miss_storm`` phases).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.errors import BenchmarkError
from repro.workloads.collective_checkpoint import CollectiveCheckpointWorkload
from repro.workloads.overlap_stress import OverlapStressWorkload
from repro.workloads.random_vectored import RandomVectoredWorkload
from repro.workloads.shared_scan import SharedScanWorkload

#: phase kinds the runner executes (``peer_miss_storm`` is an independent
#: read with a storm-family workload: every rank misses on the same keys
#: at once, hammering the cooperative tier's probe and coalescing paths)
PHASE_KINDS = ("independent_write", "collective_write", "atomic_write",
               "collective_read", "independent_read", "peer_miss_storm")
WRITE_KINDS = ("independent_write", "collective_write", "atomic_write")
READ_KINDS = ("collective_read", "independent_read", "peer_miss_storm")

#: injector kinds (see :mod:`repro.fuzz.injectors`)
INJECTOR_KINDS = ("aggregator_death", "resolver_death", "cache_thrash",
                  "hot_spot", "provider_death")


@dataclass(frozen=True)
class PhaseSpec:
    """One globally-ordered I/O phase of a scenario."""

    kind: str
    #: workload family + parameters (JSON-serializable)
    workload: Mapping

    def __post_init__(self):
        if self.kind not in PHASE_KINDS:
            raise BenchmarkError(f"unknown phase kind {self.kind!r}")

    @property
    def is_write(self) -> bool:
        return self.kind in WRITE_KINDS


@dataclass(frozen=True)
class InjectorSpec:
    """One piece of injected hostility, targeting one phase."""

    kind: str
    #: index of the phase the injector arms during (cache_thrash runs for
    #: the whole job and uses 0 by convention)
    phase: int
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in INJECTOR_KINDS:
            raise BenchmarkError(f"unknown injector kind {self.kind!r}")


@dataclass(frozen=True)
class Scenario:
    """Everything one fuzzer run needs, derived from one seed."""

    seed: int
    num_ranks: int
    ranks_per_node: int
    num_aggregators: int
    file_size: int
    chunk_size: int
    num_providers: int
    num_metadata_providers: int
    #: :class:`~repro.cluster.config.ClusterConfig` field overrides
    cluster: Mapping
    phases: Tuple[PhaseSpec, ...]
    injectors: Tuple[InjectorSpec, ...]

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "num_ranks": self.num_ranks,
            "ranks_per_node": self.ranks_per_node,
            "num_aggregators": self.num_aggregators,
            "file_size": self.file_size,
            "chunk_size": self.chunk_size,
            "num_providers": self.num_providers,
            "num_metadata_providers": self.num_metadata_providers,
            "cluster": dict(self.cluster),
            "phases": [{"kind": phase.kind,
                        "workload": dict(phase.workload)}
                       for phase in self.phases],
            "injectors": [{"kind": injector.kind, "phase": injector.phase,
                           "params": dict(injector.params)}
                          for injector in self.injectors],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        cluster = dict(data["cluster"])
        # bundles written while the event queue was selectable carry its name
        cluster.pop("scheduler", None)
        return cls(
            seed=data["seed"],
            num_ranks=data["num_ranks"],
            ranks_per_node=data["ranks_per_node"],
            num_aggregators=data["num_aggregators"],
            file_size=data["file_size"],
            chunk_size=data["chunk_size"],
            num_providers=data["num_providers"],
            num_metadata_providers=data["num_metadata_providers"],
            cluster=cluster,
            phases=tuple(PhaseSpec(kind=entry["kind"],
                                   workload=dict(entry["workload"]))
                         for entry in data["phases"]),
            injectors=tuple(InjectorSpec(kind=entry["kind"],
                                         phase=entry["phase"],
                                         params=dict(entry["params"]))
                            for entry in data["injectors"]),
        )

    def canonical_json(self) -> str:
        """Compact, key-sorted JSON — byte-stable for a given scenario."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


# ----------------------------------------------------------------------
# workload materialization (pure functions of the spec)
# ----------------------------------------------------------------------
def build_workload(workload: Mapping, num_ranks: int):
    """Construct the workload object a phase's parameters describe."""
    family = workload["family"]
    if family == "random":
        window = workload.get("window")
        return RandomVectoredWorkload(
            num_ranks=num_ranks,
            file_size=workload["file_size"],
            seed=workload["seed"],
            max_regions=workload.get("max_regions", 4),
            max_region_size=workload.get("max_region_size", 1500),
            empty_rank_chance=workload.get("empty_rank_chance", 0.2),
            window=tuple(window) if window else None)
    if family == "checkpoint":
        return CollectiveCheckpointWorkload(
            num_ranks=num_ranks, rounds=1,
            blocks_per_rank=workload["blocks_per_rank"],
            block_size=workload["block_size"])
    if family == "overlap":
        return OverlapStressWorkload(
            num_clients=num_ranks,
            regions_per_client=workload["regions_per_client"],
            region_size=workload["region_size"],
            overlap_fraction=workload["overlap_fraction"])
    if family == "storm":
        return SharedScanWorkload(
            num_clients=max(num_ranks, 1), rounds=1,
            blocks_per_round=workload["pieces"],
            block_size=workload["piece_size"],
            pattern="identical")
    raise BenchmarkError(f"unknown workload family {family!r}")


def workload_file_size(workload: Mapping, num_ranks: int) -> int:
    """Bytes of file extent the workload touches (for sizing the blob)."""
    family = workload["family"]
    if family == "random":
        return workload["file_size"]
    return build_workload(workload, num_ranks).file_size


def phase_write_pairs(phase: PhaseSpec, rank: int,
                      num_ranks: int) -> List[Tuple[int, bytes]]:
    """One rank's ``(offset, payload)`` vector for a write phase."""
    obj = build_workload(phase.workload, num_ranks)
    if isinstance(obj, RandomVectoredWorkload):
        return obj.write_pairs(rank)
    if isinstance(obj, CollectiveCheckpointWorkload):
        return obj.write_pairs(rank, 0)
    return obj.client_pairs(rank)


def phase_read_regions(phase: PhaseSpec, rank: int,
                       num_ranks: int) -> List[Tuple[int, int]]:
    """One rank's ``(offset, size)`` regions for a read phase."""
    obj = build_workload(phase.workload, num_ranks)
    if isinstance(obj, RandomVectoredWorkload):
        halo = phase.workload.get("halo", 0)
        if halo:
            return obj.halo_read_regions(rank, halo)
        return obj.read_regions(rank)
    if isinstance(obj, CollectiveCheckpointWorkload):
        return [(offset, len(payload))
                for offset, payload in obj.write_pairs(rank, 0)]
    if isinstance(obj, SharedScanWorkload):
        # storm: the identical full extent, sliced — for every rank
        return [(index * obj.block_size, obj.block_size)
                for index in range(obj.blocks_per_round)]
    return [(region.offset, region.size)
            for region in obj.client_regions(rank)]


def phase_extent(phase: PhaseSpec, num_ranks: int):
    """``(lo, hi)`` union extent of a write phase; ``None`` if all empty."""
    spans = []
    for rank in range(num_ranks):
        for offset, payload in phase_write_pairs(phase, rank, num_ranks):
            spans.append((offset, offset + len(payload)))
    if not spans:
        return None
    return min(lo for lo, _ in spans), max(hi for _, hi in spans)
