"""The fuzzer's invariant checkers: what every run is judged against.

Six checkers, each a pure function of a completed run's observations
(:class:`RunContext`), each returning a list of anomaly strings (empty
means the invariant held).  They encode the contracts the suites in
``tests/`` pin one scenario at a time:

* ``byte_identity``        — every read and the final contents equal the
  serial oracle (rank order for ordered writes, publication-ticket order
  for concurrent atomic writers, fault windows masked);
* ``version_monotonicity`` — every assigned ticket published, in order,
  nothing pending, aborts exactly matching the injected faults;
* ``stats_partition``      — the checks the metrics registry's collectors
  report (per-client lookup partition, shared services vs their clients)
  hold over all clients (:func:`repro.obs.views.collect_all`);
* ``no_hang``              — the run finished inside its event budget and
  never deadlocked;
* ``clean_fault``          — injected deaths surfaced as errors on *every*
  rank (nobody hung, nobody silently succeeded), the doomed rank saw the
  original ``StorageError``, the post-fault probe phase succeeded — and
  no phase failed *without* an injected fault;
* ``snapshot_stability``   — two independent fresh-client read-backs of
  the latest snapshot return identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fuzz.injectors import Injector, death_injector_for_phase
from repro.fuzz.oracle import MaskedOracle
from repro.fuzz.scenario import (
    Scenario,
    phase_extent,
    phase_read_regions,
    phase_write_pairs,
)
from repro.obs.views import collect_all

#: checker names, in evaluation order
CHECKER_NAMES = ("no_hang", "clean_fault", "byte_identity",
                 "version_monotonicity", "stats_partition",
                 "snapshot_stability")


@dataclass
class RunContext:
    """Everything the checkers need from one executed scenario."""

    scenario: Scenario
    path: str
    cluster: object = None
    deployment: object = None
    drivers: Dict[int, object] = field(default_factory=dict)
    comm: object = None
    all_clients: List[object] = field(default_factory=list)
    injectors: List[Injector] = field(default_factory=list)
    #: ``[phase][rank]`` outcome: ``"ok"`` or the exception type name
    phase_outcomes: List[List[str]] = field(default_factory=list)
    #: ``[phase][rank]`` published version of an atomic write (else None)
    phase_versions: List[List[Optional[int]]] = field(default_factory=list)
    #: ``[phase][rank]`` bytes returned by a read phase (else None)
    phase_reads: List[List[Optional[bytes]]] = field(default_factory=list)
    #: fresh-client whole-file read-backs (two for stability)
    final_reads: List[bytes] = field(default_factory=list)
    event_budget: int = 0
    events_used: int = 0
    deadlocked: bool = False
    budget_exceeded: bool = False
    #: failures outside any phase (rank crash, adversary error, ...)
    execution_anomalies: List[str] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return not (self.deadlocked or self.budget_exceeded)

    def expected_aborts(self) -> int:
        return sum(1 for injector in self.injectors
                   if injector.fired and injector.aborts_ticket)


# ----------------------------------------------------------------------
# the oracle reconstruction (shared by byte_identity)
# ----------------------------------------------------------------------
def replay_oracle(ctx: RunContext) -> MaskedOracle:
    """The serial expectation after every phase, fault windows masked."""
    scenario = ctx.scenario
    oracle = MaskedOracle(scenario.file_size)
    for index, phase in enumerate(scenario.phases):
        if not phase.is_write or index >= len(ctx.phase_outcomes):
            continue
        outcomes = ctx.phase_outcomes[index]
        death = death_injector_for_phase(ctx.injectors, index)
        died = death is not None and death.fired
        if phase.kind == "atomic_write":
            entries = []
            for rank in range(scenario.num_ranks):
                version = ctx.phase_versions[index][rank]
                if outcomes[rank] == "ok" and version is not None:
                    entries.append((version, rank))
            # publication-ticket order IS the atomic serialization order
            for _version, rank in sorted(entries):
                oracle.apply_pairs(
                    phase_write_pairs(phase, rank, scenario.num_ranks))
            for rank in range(scenario.num_ranks):
                if outcomes[rank] != "ok":
                    for offset, payload in phase_write_pairs(
                            phase, rank, scenario.num_ranks):
                        oracle.mask(offset, offset + len(payload))
        elif died and death.masks_phase or any(o != "ok" for o in outcomes):
            # surviving aggregators' stripes may have landed: unverifiable
            extent = phase_extent(phase, scenario.num_ranks)
            if extent is not None:
                oracle.mask(*extent)
        else:
            for rank in range(scenario.num_ranks):
                oracle.apply_pairs(
                    phase_write_pairs(phase, rank, scenario.num_ranks))
    return oracle


# ----------------------------------------------------------------------
# the checkers
# ----------------------------------------------------------------------
def check_no_hang(ctx: RunContext) -> List[str]:
    anomalies = []
    if ctx.deadlocked:
        anomalies.append(
            f"no_hang: simulation deadlocked after {ctx.events_used} events "
            "(event queue drained with ranks still waiting)")
    if ctx.budget_exceeded:
        anomalies.append(
            f"no_hang: run exceeded its event budget "
            f"({ctx.events_used} > {ctx.event_budget}; livelock?)")
    return anomalies


def check_clean_fault(ctx: RunContext) -> List[str]:
    if not ctx.finished:
        return []
    anomalies = list(ctx.execution_anomalies)
    scenario = ctx.scenario
    for index, phase in enumerate(scenario.phases):
        if index >= len(ctx.phase_outcomes):
            continue
        outcomes = ctx.phase_outcomes[index]
        death = death_injector_for_phase(ctx.injectors, index)
        if death is not None and death.fired:
            doomed = death.spec.params["rank"]
            if outcomes[doomed] != "StorageError":
                anomalies.append(
                    f"clean_fault: phase {index} doomed rank {doomed} saw "
                    f"{outcomes[doomed]!r}, not the injected StorageError")
            survivors_ok = [rank for rank, outcome in enumerate(outcomes)
                            if outcome == "ok"]
            if survivors_ok:
                anomalies.append(
                    f"clean_fault: phase {index} ranks {survivors_ok} "
                    "completed despite the injected death (failure must "
                    "surface on every rank)")
            if index + 1 < len(ctx.phase_outcomes):
                probe = ctx.phase_outcomes[index + 1]
                failed = [rank for rank, outcome in enumerate(probe)
                          if outcome != "ok"]
                if failed:
                    anomalies.append(
                        f"clean_fault: post-fault probe phase {index + 1} "
                        f"failed on ranks {failed} (group made no progress)")
        else:
            failed = [(rank, outcome)
                      for rank, outcome in enumerate(outcomes)
                      if outcome != "ok"]
            if failed:
                anomalies.append(
                    f"clean_fault: phase {index} ({phase.kind}) failed "
                    f"without an injected fault: {failed}")
    for injector in ctx.injectors:
        for error in getattr(injector, "errors", []):
            anomalies.append(
                f"clean_fault: cache-thrash adversary error: {error}")
    return anomalies


def check_byte_identity(ctx: RunContext) -> List[str]:
    if not ctx.finished:
        return []
    scenario = ctx.scenario
    oracle = MaskedOracle(scenario.file_size)
    anomalies: List[str] = []
    for index, phase in enumerate(scenario.phases):
        if index >= len(ctx.phase_outcomes):
            break
        outcomes = ctx.phase_outcomes[index]
        death = death_injector_for_phase(ctx.injectors, index)
        died = death is not None and death.fired
        if phase.is_write:
            sub = RunContext(scenario=scenario, path=ctx.path,
                             injectors=ctx.injectors,
                             phase_outcomes=ctx.phase_outcomes[:index + 1],
                             phase_versions=ctx.phase_versions[:index + 1])
            oracle = replay_oracle(sub)
            continue
        if died:
            continue  # every rank raised; nothing to compare
        for rank in range(scenario.num_ranks):
            if outcomes[rank] != "ok":
                continue  # clean_fault reports the failure itself
            data = ctx.phase_reads[index][rank]
            if data is None:
                continue
            regions = phase_read_regions(phase, rank, scenario.num_ranks)
            expected_len = sum(size for _offset, size in regions)
            if len(data) != expected_len:
                anomalies.append(
                    f"byte_identity: phase {index} rank {rank} read "
                    f"{len(data)} bytes, expected {expected_len}")
                continue
            for offset, length in oracle.region_mismatches(regions, data):
                anomalies.append(
                    f"byte_identity: phase {index} ({phase.kind}) rank "
                    f"{rank} diverges from the serial oracle at offset "
                    f"{offset} ({length} bytes)")
    if ctx.final_reads:
        for offset, length in oracle.mismatches(ctx.final_reads[0]):
            anomalies.append(
                f"byte_identity: final contents diverge from the serial "
                f"oracle at offset {offset} ({length} bytes)")
    return anomalies


def check_version_monotonicity(ctx: RunContext) -> List[str]:
    if not ctx.finished or ctx.deployment is None:
        return []
    manager = ctx.deployment.version_manager.manager
    anomalies = []
    pending = manager.pending_versions(ctx.path)
    if pending:
        anomalies.append(
            f"version_monotonicity: versions {pending} still pending after "
            "the run (publication stalled)")
    latest = manager.latest_published(ctx.path)
    if latest != manager.tickets_assigned:
        anomalies.append(
            f"version_monotonicity: latest published {latest} != tickets "
            f"assigned {manager.tickets_assigned} (gap in the version "
            "chain)")
    expected_aborts = ctx.expected_aborts()
    if manager.tickets_aborted != expected_aborts:
        anomalies.append(
            f"version_monotonicity: {manager.tickets_aborted} tickets "
            f"aborted, expected {expected_aborts} (one per fired death "
            "injector on the write path)")
    return anomalies


def check_stats_partition(ctx: RunContext) -> List[str]:
    if not ctx.finished or ctx.cluster is None:
        return []
    registry = ctx.cluster.obs.registry
    collect_all(registry,
                cluster=ctx.cluster,
                deployment=ctx.deployment,
                clients=ctx.all_clients,
                drivers=list(ctx.drivers.values()),
                comms=[ctx.comm] if ctx.comm is not None else (),
                complete_clients=True)
    return [f"stats_partition: {problem}"
            for problem in registry.check_identities()]


def check_snapshot_stability(ctx: RunContext) -> List[str]:
    if not ctx.finished or len(ctx.final_reads) < 2:
        return []
    first, second = ctx.final_reads[0], ctx.final_reads[1]
    if first != second:
        diverge = next(i for i in range(min(len(first), len(second)) + 1)
                       if i >= len(first) or i >= len(second)
                       or first[i] != second[i])
        return [f"snapshot_stability: two fresh read-backs of the same "
                f"snapshot diverge at offset {diverge}"]
    return []


CHECKERS = {
    "no_hang": check_no_hang,
    "clean_fault": check_clean_fault,
    "byte_identity": check_byte_identity,
    "version_monotonicity": check_version_monotonicity,
    "stats_partition": check_stats_partition,
    "snapshot_stability": check_snapshot_stability,
}


def run_checkers(ctx: RunContext) -> Dict[str, List[str]]:
    """Every checker's anomalies, keyed by checker name (all keys present)."""
    return {name: CHECKERS[name](ctx) for name in CHECKER_NAMES}
