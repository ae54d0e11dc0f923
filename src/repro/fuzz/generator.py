"""Seed-derived scenario generation.

Every random choice flows through the ``"fuzz"`` scope of one
:class:`~repro.simengine.rand.DeterministicRNG` rooted at the run seed —
never wall-clock, never a shared global.  The scope has three streams with
a fixed consumption order (``cluster`` → ``phases`` → ``hostility``), so a
seed maps to exactly one scenario forever, and because fuzz streams are
SHA-derived like every other scope, generating scenarios can never perturb
the workload or network streams of the simulations they describe.

Hostility is sampled *after* the phases so its preconditions can be
checked against what actually exists (an aggregator death needs a
collective write with at least two aggregators, a resolver death a
collective read).  A roll that once drew the retired straggler draws
nothing, so the seeds that never rolled it still map to the same scenario;
the retired cooperative tier's draws (its coin, a peer-miss storm phase, a
peer-daemon death) are still consumed and discarded.
When a death injector is placed, a disjoint probe phase is appended so the
run also proves the group makes progress after the failure.
"""

from __future__ import annotations

from typing import List

from repro.mpiio.adio.collective import aggregator_ranks
from repro.simengine.rand import SCOPE_FUZZ, DeterministicRNG
from repro.fuzz.scenario import (
    InjectorSpec,
    PhaseSpec,
    Scenario,
    build_workload,
    workload_file_size,
)

#: bounds keeping one run small enough for 500-run sweeps
MAX_RANKS = 5
MAX_PHASES = 3


def _choice(stream, items):
    return items[int(stream.integers(0, len(items)))]


def _chance(stream, probability: float) -> bool:
    return float(stream.uniform(0.0, 1.0)) < probability


def _sample_cluster(stream) -> dict:
    """ClusterConfig overrides on top of the QUICK base profile."""
    # two draws that once picked an engine profile and a queue backend:
    # still consumed, so every later field, and with it every pinned seed,
    # replays unchanged.  So are the retired draws further down (an
    # eviction policy, a metadata-prefetch coin, the cooperative tier's
    # coin and provider fraction)
    stream.uniform(0.0, 1.0)
    stream.integers(0, 3)
    overrides = {
        "network_model": "queued" if _chance(stream, 0.3) else "bottleneck",
        "tracing": _chance(stream, 0.15),
    }
    if overrides["network_model"] == "queued":
        overrides["nodes_per_switch"] = int(stream.integers(2, 5))
        if _chance(stream, 0.5):
            overrides["network_jitter"] = round(
                float(stream.uniform(0.01, 0.2)), 4)
    if _chance(stream, 0.4):
        overrides["shared_metadata_cache"] = True
        overrides["shared_cache_capacity"] = _choice(
            stream, [None, 8, 16, 32, 64])
        stream.integers(0, 4)  # retired: eviction policy
    if _chance(stream, 0.4):
        overrides["metadata_cache_capacity"] = int(stream.integers(4, 65))
    stream.uniform(0.0, 1.0)  # retired: metadata-prefetch coin
    retired_coop = False
    if overrides.get("shared_metadata_cache") and _chance(stream, 0.5):
        retired_coop = True
        stream.integers(0, 3)  # retired: coop provider fraction
    return overrides, retired_coop


def _sample_workload(stream, family: str, num_ranks: int,
                     pattern_seed: int) -> dict:
    if family == "random":
        file_size = int(stream.integers(8, 33)) * 1024
        max_region_size = int(stream.integers(200, 1501))
        return {"family": "random", "seed": pattern_seed,
                "file_size": file_size,
                "max_regions": int(stream.integers(1, 5)),
                "max_region_size": max_region_size,
                "empty_rank_chance": round(
                    float(stream.uniform(0.0, 0.3)), 3),
                "window": None}
    if family == "checkpoint":
        return {"family": "checkpoint",
                "blocks_per_rank": int(stream.integers(2, 5)),
                "block_size": int(_choice(stream, [256, 512, 1024]))}
    return {"family": "overlap",
            "regions_per_client": int(stream.integers(2, 5)),
            "region_size": int(stream.integers(256, 2049)),
            "overlap_fraction": round(float(stream.uniform(0.0, 0.8)), 3)}


def _probe_phase(stream, pattern_seed: int) -> PhaseSpec:
    """A disjoint write phase proving post-fault progress."""
    return PhaseSpec(kind="independent_write",
                     workload=_sample_workload(stream, "checkpoint", 0,
                                               pattern_seed))


def generate_scenario(seed: int) -> Scenario:
    """The one scenario a seed maps to (pure; no global state)."""
    scope = DeterministicRNG(seed).scope(SCOPE_FUZZ)
    cluster_stream = scope.stream("cluster")
    phase_stream = scope.stream("phases")
    fault_stream = scope.stream("hostility")

    num_ranks = int(cluster_stream.integers(2, MAX_RANKS + 1))
    ranks_per_node = 2 if _chance(cluster_stream, 0.3) else 1
    num_aggregators = int(cluster_stream.integers(1, num_ranks + 1))
    chunk_size = int(_choice(cluster_stream, [512, 1024, 2048]))
    num_providers = int(cluster_stream.integers(2, 5))
    num_metadata_providers = int(cluster_stream.integers(1, 4))
    cluster, retired_coop = _sample_cluster(cluster_stream)

    # ------------------------------------------------------------------
    # phases: writes first (reads only make sense over written bytes)
    # ------------------------------------------------------------------
    phases: List[PhaseSpec] = []
    num_phases = int(phase_stream.integers(1, MAX_PHASES + 1))
    for index in range(num_phases):
        pattern_seed = seed * 1009 + index * 101 + num_ranks
        if index == 0 or _chance(phase_stream, 0.6):
            kind = _choice(phase_stream, ["independent_write",
                                          "collective_write",
                                          "atomic_write"])
            family = _choice(phase_stream, ["random", "checkpoint",
                                            "overlap"])
        else:
            kind = _choice(phase_stream, ["collective_read",
                                          "independent_read"])
            family = _choice(phase_stream, ["random", "checkpoint"])
        workload = _sample_workload(phase_stream, family, num_ranks,
                                    pattern_seed)
        if kind in ("collective_read", "independent_read") \
                and family == "random" and _chance(phase_stream, 0.5):
            workload["halo"] = int(phase_stream.integers(16, 129))
        phases.append(PhaseSpec(kind=kind, workload=workload))

    # ------------------------------------------------------------------
    # hostility, constrained by what the phases offer
    # ------------------------------------------------------------------
    injectors: List[InjectorSpec] = []

    # hot spot: confine a random-family write phase to a narrow window
    if _chance(fault_stream, 0.3):
        candidates = [i for i, p in enumerate(phases)
                      if p.is_write and p.workload["family"] == "random"]
        if candidates:
            target = _choice(fault_stream, candidates)
            workload = dict(phases[target].workload)
            span = max(workload["max_region_size"],
                       workload["file_size"] // 8)
            lo = int(fault_stream.integers(
                0, workload["file_size"] - span + 1))
            workload["window"] = [lo, span]
            workload["max_region_size"] = min(
                workload["max_region_size"], span)
            phases[target] = PhaseSpec(kind=phases[target].kind,
                                       workload=workload)
            injectors.append(InjectorSpec(
                kind="hot_spot", phase=target,
                params={"window": workload["window"]}))

    owners = aggregator_ranks(num_ranks, num_aggregators)
    if _chance(fault_stream, 0.35):
        roll = float(fault_stream.uniform(0.0, 1.0))
        if roll < 0.3 and num_aggregators >= 2:
            # aggregator death needs a collective write to die inside
            targets = [i for i, p in enumerate(phases)
                       if p.kind == "collective_write"]
            if targets:
                target = _choice(fault_stream, targets)
                injectors.append(InjectorSpec(
                    kind="aggregator_death", phase=target,
                    params={"rank": owners[-1]}))
                phases.append(_probe_phase(fault_stream,
                                           seed * 1009 + 7919))
        elif roll < 0.55:
            targets = [i for i, p in enumerate(phases)
                       if p.kind == "collective_read"]
            if targets:
                target = _choice(fault_stream, targets)
                injectors.append(InjectorSpec(
                    kind="resolver_death", phase=target,
                    params={"rank": owners[-1]}))
                phases.append(_probe_phase(fault_stream,
                                           seed * 1009 + 7919))
        elif roll < 0.8:
            pass  # retired: straggler
        else:
            injectors.append(InjectorSpec(
                kind="cache_thrash", phase=0,
                params={"reads": int(fault_stream.integers(4, 13)),
                        "max_size": int(fault_stream.integers(64, 2049))}))

    # retired: the cooperative tier's peer-miss storm phase and its
    # peer-daemon death, still drawn so the stream stays aligned
    if retired_coop and _chance(fault_stream, 0.6):
        fault_stream.integers(2, 7)
        _choice(fault_stream, [512, 1024, 2048])
        if -(-num_ranks // ranks_per_node) >= 2 \
                and _chance(fault_stream, 0.5):
            fault_stream.integers(0, 16)

    # file extent: the union of everything any phase touches
    file_size = max(workload_file_size(phase.workload, num_ranks)
                    for phase in phases)
    file_size = -(-file_size // chunk_size) * chunk_size

    scenario = Scenario(
        seed=seed,
        num_ranks=num_ranks,
        ranks_per_node=ranks_per_node,
        num_aggregators=num_aggregators,
        file_size=file_size,
        chunk_size=chunk_size,
        num_providers=num_providers,
        num_metadata_providers=num_metadata_providers,
        cluster=cluster,
        phases=tuple(phases),
        injectors=tuple(injectors),
    )
    # construction-time validation: every workload must materialize
    for phase in scenario.phases:
        build_workload(phase.workload, num_ranks)
    return scenario
