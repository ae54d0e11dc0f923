"""Checker liveness: every invariant checker must flag a planted violation.

Each test hands a checker a deliberately broken :class:`RunContext` (plus a
clean control) — if a checker cannot flag its own violation class, every
"0 flagged" sweep line it contributed to is vacuous.
"""

from repro.fuzz.injectors import build_injector
from repro.fuzz.invariants import (
    CHECKER_NAMES,
    RunContext,
    check_byte_identity,
    check_clean_fault,
    check_no_hang,
    check_snapshot_stability,
    check_stats_partition,
    check_version_monotonicity,
    replay_oracle,
    run_checkers,
)
from repro.fuzz.oracle import MaskedOracle
from repro.fuzz.scenario import InjectorSpec, PhaseSpec, phase_read_regions, \
    phase_write_pairs
from repro.vstore.client import VectoredClient
from tests.fuzz._scenlib import checkpoint_phase, make_scenario, \
    random_workload
from tests.mpiio._collective_testlib import make_quick_deployment

PATH = "/fuzz"


def make_ctx(scenario, **overrides):
    defaults = dict(scenario=scenario, path=PATH)
    defaults.update(overrides)
    return RunContext(**defaults)


# ----------------------------------------------------------------------
# no_hang
# ----------------------------------------------------------------------
def test_no_hang_flags_deadlock_and_budget():
    scenario = make_scenario(phases=[checkpoint_phase()])
    assert check_no_hang(make_ctx(scenario)) == []
    deadlocked = make_ctx(scenario, deadlocked=True, events_used=123)
    assert any("deadlocked" in entry for entry in check_no_hang(deadlocked))
    over = make_ctx(scenario, budget_exceeded=True, events_used=9,
                    event_budget=5)
    assert any("event budget" in entry for entry in check_no_hang(over))


def test_unfinished_runs_skip_the_other_checkers():
    scenario = make_scenario(phases=[checkpoint_phase()])
    ctx = make_ctx(scenario, deadlocked=True,
                   phase_outcomes=[["StorageError"] * 4],
                   final_reads=[b"garbage"])
    assert check_clean_fault(ctx) == []
    assert check_byte_identity(ctx) == []
    report = run_checkers(ctx)
    assert set(report) == set(CHECKER_NAMES)
    assert report["no_hang"]                      # only no_hang fires


# ----------------------------------------------------------------------
# clean_fault
# ----------------------------------------------------------------------
def death_scenario():
    phases = [checkpoint_phase("collective_write"), checkpoint_phase()]
    spec = InjectorSpec(kind="aggregator_death", phase=0, params={"rank": 2})
    return make_scenario(phases=phases, injectors=[spec])


def fired_death(scenario):
    injector = build_injector(scenario.injectors[0])
    injector.fired = True
    return injector


def test_clean_fault_accepts_contained_failure():
    scenario = death_scenario()
    ctx = make_ctx(scenario, injectors=[fired_death(scenario)],
                   phase_outcomes=[["StorageError"] * 4, ["ok"] * 4])
    assert check_clean_fault(ctx) == []


def test_clean_fault_flags_silent_success_under_injected_death():
    scenario = death_scenario()
    ctx = make_ctx(scenario, injectors=[fired_death(scenario)],
                   phase_outcomes=[["ok"] * 4, ["ok"] * 4])
    anomalies = check_clean_fault(ctx)
    assert any("doomed rank 2" in entry for entry in anomalies)
    assert any("despite the injected death" in entry for entry in anomalies)


def test_clean_fault_flags_failed_post_fault_probe():
    scenario = death_scenario()
    outcomes = [["StorageError"] * 4,
                ["ok", "SimulationError", "ok", "ok"]]
    ctx = make_ctx(scenario, injectors=[fired_death(scenario)],
                   phase_outcomes=outcomes)
    assert any("probe phase 1" in entry
               for entry in check_clean_fault(ctx))


def test_clean_fault_flags_uninjected_failure():
    scenario = make_scenario(phases=[checkpoint_phase()])
    ctx = make_ctx(scenario,
                   phase_outcomes=[["ok", "StorageError", "ok", "ok"]])
    assert any("without an injected fault" in entry
               for entry in check_clean_fault(ctx))


def test_clean_fault_surfaces_adversary_errors():
    spec = InjectorSpec(kind="cache_thrash", phase=0,
                        params={"reads": 4, "max_size": 256})
    scenario = make_scenario(phases=[checkpoint_phase()], injectors=[spec])
    thrash = build_injector(spec)
    thrash.errors.append("StorageError: boom")
    ctx = make_ctx(scenario, injectors=[thrash],
                   phase_outcomes=[["ok"] * 4])
    assert any("adversary error" in entry
               for entry in check_clean_fault(ctx))


# ----------------------------------------------------------------------
# byte_identity
# ----------------------------------------------------------------------
def rw_scenario():
    workload = random_workload(seed=5)
    return make_scenario(num_ranks=2, phases=[
        PhaseSpec(kind="independent_write", workload=workload),
        PhaseSpec(kind="independent_read", workload=workload),
    ])


def expected_phase_reads(scenario, read_index):
    oracle = MaskedOracle(scenario.file_size)
    for rank in range(scenario.num_ranks):
        oracle.apply_pairs(phase_write_pairs(scenario.phases[0], rank,
                                             scenario.num_ranks))
    reads = []
    for rank in range(scenario.num_ranks):
        regions = phase_read_regions(scenario.phases[read_index], rank,
                                     scenario.num_ranks)
        reads.append(b"".join(bytes(oracle.content[o:o + s])
                              for o, s in regions))
    return oracle, reads


def test_byte_identity_accepts_consistent_reads():
    scenario = rw_scenario()
    oracle, reads = expected_phase_reads(scenario, 1)
    ctx = make_ctx(scenario,
                   phase_outcomes=[["ok"] * 2, ["ok"] * 2],
                   phase_versions=[[None] * 2, [None] * 2],
                   phase_reads=[[None] * 2, reads],
                   final_reads=[bytes(oracle.content)])
    assert check_byte_identity(ctx) == []


def test_byte_identity_flags_corrupted_phase_read():
    scenario = rw_scenario()
    _oracle, reads = expected_phase_reads(scenario, 1)
    assert reads[0], "rank 0 must have regions for the corruption to land"
    bad = bytearray(reads[0])
    bad[0] ^= 0xFF
    reads[0] = bytes(bad)
    ctx = make_ctx(scenario,
                   phase_outcomes=[["ok"] * 2, ["ok"] * 2],
                   phase_versions=[[None] * 2, [None] * 2],
                   phase_reads=[[None] * 2, reads])
    assert any("diverges from the serial oracle" in entry
               for entry in check_byte_identity(ctx))


def test_byte_identity_flags_short_read():
    scenario = rw_scenario()
    _oracle, reads = expected_phase_reads(scenario, 1)
    reads[1] = reads[1][:-1] if reads[1] else b""
    ctx = make_ctx(scenario,
                   phase_outcomes=[["ok"] * 2, ["ok"] * 2],
                   phase_versions=[[None] * 2, [None] * 2],
                   phase_reads=[[None] * 2, reads])
    assert any("bytes, expected" in entry
               for entry in check_byte_identity(ctx))


def test_byte_identity_flags_corrupted_final_contents():
    scenario = rw_scenario()
    oracle, reads = expected_phase_reads(scenario, 1)
    final = bytearray(oracle.content)
    target = phase_write_pairs(scenario.phases[0], 0, 2)[0][0]
    final[target] ^= 0xFF
    ctx = make_ctx(scenario,
                   phase_outcomes=[["ok"] * 2, ["ok"] * 2],
                   phase_versions=[[None] * 2, [None] * 2],
                   phase_reads=[[None] * 2, reads],
                   final_reads=[bytes(final)])
    assert any("final contents diverge" in entry
               for entry in check_byte_identity(ctx))


def test_replay_oracle_orders_atomic_phase_by_ticket():
    workload = random_workload(seed=9)
    scenario = make_scenario(num_ranks=2, phases=[
        PhaseSpec(kind="atomic_write", workload=workload)])
    # rank 1 published first (version 1), rank 0 second (version 2):
    # publication-ticket order must win over rank order
    ctx = make_ctx(scenario,
                   phase_outcomes=[["ok"] * 2],
                   phase_versions=[[2, 1]])
    oracle = replay_oracle(ctx)
    expected = MaskedOracle(scenario.file_size)
    expected.apply_pairs(phase_write_pairs(scenario.phases[0], 1, 2))
    expected.apply_pairs(phase_write_pairs(scenario.phases[0], 0, 2))
    assert bytes(oracle.content) == bytes(expected.content)
    assert oracle.masked_bytes == 0


def test_replay_oracle_masks_failed_atomic_writer():
    workload = random_workload(seed=9)
    scenario = make_scenario(num_ranks=2, phases=[
        PhaseSpec(kind="atomic_write", workload=workload)])
    ctx = make_ctx(scenario,
                   phase_outcomes=[["ok", "StorageError"]],
                   phase_versions=[[1, None]])
    oracle = replay_oracle(ctx)
    failed_bytes = sum(len(payload) for _o, payload
                       in phase_write_pairs(scenario.phases[0], 1, 2))
    assert oracle.masked_bytes >= 1
    assert oracle.masked_bytes <= failed_bytes


def test_replay_oracle_masks_fired_death_phase_extent():
    scenario = death_scenario()
    ctx = make_ctx(scenario, injectors=[fired_death(scenario)],
                   phase_outcomes=[["StorageError"] * 4])
    oracle = replay_oracle(ctx)
    assert oracle.masked_bytes == scenario.file_size  # full-coverage phase


# ----------------------------------------------------------------------
# version_monotonicity
# ----------------------------------------------------------------------
class _StubManager:
    def __init__(self, pending=(), latest=0, assigned=0, aborted=0):
        self._pending = list(pending)
        self._latest = latest
        self.tickets_assigned = assigned
        self.tickets_aborted = aborted

    def pending_versions(self, path):
        return list(self._pending)

    def latest_published(self, path):
        return self._latest


class _StubDeployment:
    def __init__(self, manager):
        self.version_manager = type("VM", (), {"manager": manager})()


def test_version_monotonicity_accepts_clean_chain():
    scenario = make_scenario(phases=[checkpoint_phase()])
    deployment = _StubDeployment(_StubManager(latest=3, assigned=3))
    assert check_version_monotonicity(
        make_ctx(scenario, deployment=deployment)) == []


def test_version_monotonicity_flags_pending_gap_and_phantom_abort():
    scenario = make_scenario(phases=[checkpoint_phase()])
    deployment = _StubDeployment(_StubManager(pending=[3], latest=2,
                                              assigned=4, aborted=1))
    anomalies = check_version_monotonicity(
        make_ctx(scenario, deployment=deployment))
    assert any("still pending" in entry for entry in anomalies)
    assert any("gap in the version chain" in entry for entry in anomalies)
    assert any("tickets aborted" in entry for entry in anomalies)


def test_version_monotonicity_expects_one_abort_per_fired_death():
    scenario = death_scenario()
    deployment = _StubDeployment(_StubManager(latest=2, assigned=2,
                                              aborted=1))
    ctx = make_ctx(scenario, deployment=deployment,
                   injectors=[fired_death(scenario)])
    assert check_version_monotonicity(ctx) == []
    # same state, but the death never fired: the abort is now unexplained
    ctx.injectors[0].fired = False
    assert any("tickets" in entry
               for entry in check_version_monotonicity(ctx))


# ----------------------------------------------------------------------
# stats_partition (real cluster, tampered counter)
# ----------------------------------------------------------------------
def partition_ctx():
    cluster, deployment = make_quick_deployment(seed=2, chunk_size=1024)
    client = VectoredClient(deployment, cluster.add_node("probe"),
                            name="probe")

    def scenario_main():
        yield from client.create_blob(PATH, 4096, chunk_size=1024)
        yield from client.vwrite_and_wait(PATH, [(0, b"\x05" * 2048)])
        yield from client.vread(PATH, [(0, 2048)])

    process = cluster.sim.process(scenario_main())
    cluster.sim.run(stop_event=process)
    scenario = make_scenario(phases=[checkpoint_phase()])
    return client, make_ctx(scenario, cluster=cluster,
                            deployment=deployment, all_clients=[client])


def test_stats_partition_holds_on_a_real_run():
    _client, ctx = partition_ctx()
    assert check_stats_partition(ctx) == []


def test_stats_partition_flags_tampered_lookup_counter():
    client, ctx = partition_ctx()
    # phantom lookups: counted by the tier, answered by nobody
    client.metadata_cache.stats.lookups += 7
    anomalies = check_stats_partition(ctx)
    assert any("lookup_partition" in entry for entry in anomalies)


# ----------------------------------------------------------------------
# snapshot_stability
# ----------------------------------------------------------------------
def test_snapshot_stability_flags_divergent_read_backs():
    scenario = make_scenario(phases=[checkpoint_phase()])
    stable = make_ctx(scenario, final_reads=[b"abcd", b"abcd"])
    assert check_snapshot_stability(stable) == []
    unstable = make_ctx(scenario, final_reads=[b"abcd", b"abXd"])
    anomalies = check_snapshot_stability(unstable)
    assert anomalies and "offset 2" in anomalies[0]


def test_run_checkers_reports_every_checker():
    scenario = make_scenario(phases=[checkpoint_phase()])
    report = run_checkers(make_ctx(scenario))
    assert tuple(report) == CHECKER_NAMES
    assert all(entries == [] for entries in report.values())
