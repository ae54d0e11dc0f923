"""Scenario execution: one fuzz run from blueprint to judged result.

The whole scenario runs as ONE simulated MPI job over one shared file:
phases execute in global order, separated by a sync+barrier boundary (the
MPI ``sync-barrier-sync`` consistency idiom), so every phase's effects are
published before the next phase observes them — any divergence from the
serial oracle is a genuine finding, never a visibility race.

The simulation is driven by a *bounded* manual event loop instead of
``Simulator.run``: a drained queue with unfinished ranks is a deadlock
anomaly and an exhausted event budget is a livelock anomaly — both
reported by the ``no_hang`` checker instead of hanging the fuzzer.

Determinism: the run derives from ``(scenario, seed)`` alone — cluster
seed, workload bytes, adversary reads (fuzz-scope RNG) and the simulated
clock.  Nothing reads the wall clock, so executing the same scenario twice
produces byte-identical results, which is what makes ``--replay`` exact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.blobseer.client import BlobClient
from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.errors import SimulationError
from repro.fuzz.injectors import CacheThrash, build_injectors
from repro.fuzz.invariants import RunContext, run_checkers
from repro.fuzz.scenario import (
    Scenario,
    phase_read_regions,
    phase_write_pairs,
)
from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import launch_mpi_job
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.obs.critpath import dump_report
from repro.obs.export import dump_chrome_trace
from repro.simengine.rand import SCOPE_FUZZ

#: the shared file every scenario exercises
PATH = "/fuzz"

#: the QUICK profile of the conformance suites: fast network, fast disks —
#: scenario overrides are applied on top
QUICK_BASE = {"network_latency": 1e-5, "disk_overhead": 1e-4}


@dataclass
class RunResult:
    """One executed, judged scenario."""

    scenario: Scenario
    #: checker name -> anomalies (every checker present, empty when clean)
    anomalies: Dict[str, List[str]]
    #: injector kinds that proved live this run
    fired: List[str] = field(default_factory=list)
    #: injector kinds that were armed but never triggered
    dormant: List[str] = field(default_factory=list)
    read_digest: Optional[str] = None
    latest_version: Optional[int] = None
    processed_events: int = 0
    sim_elapsed: float = 0.0

    @property
    def flagged(self) -> bool:
        return any(self.anomalies.values())

    def all_anomalies(self) -> List[str]:
        return [entry for name in sorted(self.anomalies)
                for entry in self.anomalies[name]]


def event_budget(scenario: Scenario) -> int:
    """A generous per-run event bound (anything above it is a livelock)."""
    return 2_000_000 + 600_000 * scenario.num_ranks


def execute_scenario(scenario: Scenario, *, tracing: Optional[bool] = None,
                     trace_path: Optional[str] = None,
                     critpath_path: Optional[str] = None,
                     max_events: Optional[int] = None) -> RunResult:
    """Run one scenario under the full checker bank.

    ``tracing=True`` forces span recording regardless of the sampled
    config (tracing is proven behaviour-neutral, so flagged runs can be
    re-executed with it to produce a Chrome trace at ``trace_path`` and
    a critical-path layer report at ``critpath_path``).
    """
    overrides = dict(QUICK_BASE)
    overrides.update(scenario.cluster)
    if tracing is not None:
        overrides["tracing"] = tracing
    config = ClusterConfig(**overrides)

    cluster = Cluster(config=config, seed=scenario.seed)
    sim = cluster.sim
    deployment = BlobSeerDeployment(
        cluster, num_providers=scenario.num_providers,
        num_metadata_providers=scenario.num_metadata_providers,
        chunk_size=scenario.chunk_size)

    injectors = build_injectors(scenario.injectors)
    thrash = next((i for i in injectors if isinstance(i, CacheThrash)),
                  None)

    ctx = RunContext(scenario=scenario, path=PATH, cluster=cluster,
                     deployment=deployment, injectors=injectors,
                     event_budget=max_events or event_budget(scenario))
    ctx.phase_outcomes = [["ok"] * scenario.num_ranks
                          for _ in scenario.phases]
    ctx.phase_versions = [[None] * scenario.num_ranks
                          for _ in scenario.phases]
    ctx.phase_reads = [[None] * scenario.num_ranks
                       for _ in scenario.phases]

    # ------------------------------------------------------------------
    # blob creation (so the adversary can read from simulated t=0)
    # ------------------------------------------------------------------
    setup = BlobClient(deployment, cluster.add_node("fuzz-setup"),
                       name="fuzz-setup")
    ctx.all_clients.append(setup)

    def setup_main():
        yield from setup.create_blob(PATH, scenario.file_size,
                                     chunk_size=scenario.chunk_size)

    sim.run(stop_event=sim.process(setup_main(), name="fuzz-setup"))

    # ------------------------------------------------------------------
    # the MPI job
    # ------------------------------------------------------------------
    drivers: Dict[int, VersioningDriver] = {}
    comms = []

    def rank_main(mpi):
        if mpi.rank == 0:
            comms.append(mpi.comm)
        driver = VersioningDriver(
            deployment, mpi.node, rank_name=f"rank{mpi.rank}",
            write_coalescing=True, collective_buffering=True,
            collective_reads=True,
            collective_aggregators=scenario.num_aggregators)
        drivers[mpi.rank] = driver
        handle = yield from File.open(driver, PATH, rank=mpi.rank,
                                      comm=mpi.comm,
                                      size_hint=scenario.file_size)
        try:
            for index, phase in enumerate(scenario.phases):
                for injector in injectors:
                    if injector.phase == index:
                        injector.arm(mpi.rank, driver)
                handle.set_view(0, BYTE, BYTE)
                try:
                    if phase.kind == "independent_write":
                        pairs = phase_write_pairs(phase, mpi.rank,
                                                  scenario.num_ranks)
                        for offset, payload in pairs:
                            yield from handle.write_at(offset, payload)
                        # rank-order publication, as the serial oracle
                        for turn in range(mpi.size):
                            if turn == mpi.rank:
                                yield from handle.sync()
                            yield from mpi.comm.barrier(mpi.rank)
                    elif phase.kind == "collective_write":
                        pairs = phase_write_pairs(phase, mpi.rank,
                                                  scenario.num_ranks)
                        if pairs:
                            handle.set_view(filetype=Indexed.of_extents(
                                (offset, len(payload))
                                for offset, payload in pairs))
                            yield from handle.write_at_all(0, b"".join(
                                payload for _offset, payload in pairs))
                        else:
                            yield from handle.write_at_all(0, b"")
                    elif phase.kind == "atomic_write":
                        pairs = phase_write_pairs(phase, mpi.rank,
                                                  scenario.num_ranks)
                        if pairs:
                            # concurrent overlapping atomic writers: the
                            # backend serializes them by version ticket
                            receipt = yield from \
                                driver.client.vwrite_and_wait(PATH, pairs)
                            ctx.phase_versions[index][mpi.rank] = \
                                receipt.version
                    elif phase.kind == "collective_read":
                        regions = phase_read_regions(phase, mpi.rank,
                                                     scenario.num_ranks)
                        if regions:
                            handle.set_view(
                                filetype=Indexed.of_extents(regions))
                            data = yield from handle.read_at_all(
                                0, sum(size for _offset, size in regions))
                        else:
                            data = yield from handle.read_at_all(0, 0)
                        ctx.phase_reads[index][mpi.rank] = data
                    elif phase.kind == "independent_read":
                        regions = phase_read_regions(phase, mpi.rank,
                                                     scenario.num_ranks)
                        pieces = []
                        for offset, size in regions:
                            piece = yield from handle.read_at(offset, size)
                            pieces.append(piece)
                        ctx.phase_reads[index][mpi.rank] = b"".join(pieces)
                except Exception as exc:  # judged by clean_fault
                    ctx.phase_outcomes[index][mpi.rank] = type(exc).__name__
                # phase boundary: everyone arrives, dormant sabotage heals,
                # then sync-barrier so the next phase observes this one
                yield from mpi.comm.barrier(mpi.rank)
                for injector in injectors:
                    if injector.phase == index:
                        injector.disarm(mpi.rank, driver)
                handle.set_view(0, BYTE, BYTE)
                try:
                    yield from handle.sync()
                except Exception as exc:
                    if ctx.phase_outcomes[index][mpi.rank] == "ok":
                        ctx.phase_outcomes[index][mpi.rank] = \
                            type(exc).__name__
                yield from mpi.comm.barrier(mpi.rank)
        finally:
            yield from handle.close()

    processes = launch_mpi_job(cluster, scenario.num_ranks, rank_main,
                               ranks_per_node=scenario.ranks_per_node)

    if thrash is not None:
        adversary = BlobClient(
            deployment, cluster.add_node("fuzz-adversary"),
            name="fuzz-adversary", metadata_cache_capacity=2)
        ctx.all_clients.append(adversary)
        stream = sim.rng.scope(SCOPE_FUZZ).stream("thrash")

        def adversary_main():
            for _ in range(thrash.spec.params["reads"]):
                offset = int(stream.integers(0, scenario.file_size))
                size = min(int(stream.integers(
                    1, thrash.spec.params["max_size"] + 1)),
                    scenario.file_size - offset)
                try:
                    yield from adversary.vread(PATH, [(offset, max(1, size))])
                except Exception as exc:
                    thrash.errors.append(f"{type(exc).__name__}: {exc}")
                thrash.note_read()
                yield sim.sleep(float(stream.uniform(1e-5, 2e-3)))

        processes = processes + [sim.process(adversary_main(),
                                             name="fuzz-adversary")]

    def waiter():
        yield sim.all_of(processes)
        return True

    waiter_process = sim.process(waiter(), name="fuzz-waiter")

    while not waiter_process.processed:
        if sim.peek() == float("inf"):
            ctx.deadlocked = True
            break
        try:
            sim.step()
        except Exception as exc:
            ctx.execution_anomalies.append(
                f"rank process crashed outside a phase: "
                f"{type(exc).__name__}: {exc}")
            break
        if sim.processed_events > ctx.event_budget:
            ctx.budget_exceeded = True
            break
    ctx.events_used = sim.processed_events
    ctx.drivers = drivers
    ctx.comm = comms[0] if comms else None
    ctx.all_clients.extend(driver.client for driver in drivers.values())

    # ------------------------------------------------------------------
    # fresh-client read-backs (byte identity + snapshot stability)
    # ------------------------------------------------------------------
    if ctx.finished and not ctx.execution_anomalies:
        for attempt in range(2):
            verify = BlobClient(
                deployment, cluster.add_node(f"fuzz-verify{attempt}"),
                name=f"fuzz-verify{attempt}")
            ctx.all_clients.append(verify)

            def verify_main(client=verify):
                pieces = yield from client.vread(
                    PATH, [(0, scenario.file_size)])
                return pieces[0]

            try:
                data = sim.run(stop_event=sim.process(
                    verify_main(), name=f"fuzz-verify{attempt}"))
                ctx.final_reads.append(data)
            except SimulationError as exc:
                ctx.execution_anomalies.append(
                    f"read-back {attempt} failed: {exc}")
                break

    anomalies = run_checkers(ctx)

    result = RunResult(
        scenario=scenario,
        anomalies=anomalies,
        fired=sorted(injector.kind for injector in injectors
                     if injector.fired),
        dormant=sorted(injector.kind for injector in injectors
                       if not injector.fired),
        read_digest=(hashlib.sha256(ctx.final_reads[0]).hexdigest()
                     if ctx.final_reads else None),
        latest_version=(deployment.version_manager.manager
                        .latest_published(PATH) if ctx.finished else None),
        processed_events=sim.processed_events,
        sim_elapsed=round(sim.now, 9),
    )

    if config.tracing and trace_path is not None:
        dump_chrome_trace(cluster.obs.tracer, trace_path,
                          telemetry=cluster.obs.link_telemetry)
    # last: the critical-path analysis may raise on pathological traces
    # (deadlocked ranks leave partial spans); the trace above still lands
    if config.tracing and critpath_path is not None:
        dump_report(cluster.obs.tracer, critpath_path)
    return result
