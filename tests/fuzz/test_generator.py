"""Generator properties: determinism, round-trip, structural validity.

A seed must map to exactly one scenario forever — the replay contract
starts here — and everything the generator emits must satisfy the
structural constraints the runner assumes (first phase writes, injectors
target phases that exist and have the right shape, the file extent covers
every workload, hot-spot windows actually confine).
"""

import json
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig
from repro.fuzz.generator import MAX_PHASES, MAX_RANKS, generate_scenario
from repro.fuzz.runner import execute_scenario
from repro.fuzz.scenario import (
    INJECTOR_KINDS,
    PHASE_KINDS,
    READ_KINDS,
    WRITE_KINDS,
    Scenario,
    build_workload,
    workload_file_size,
)
from tests._workloads import union_extent

SEEDS = range(120)


@pytest.mark.parametrize("seed", [0, 1, 17, 42, 123, 9999])
def test_same_seed_same_scenario(seed):
    assert (generate_scenario(seed).canonical_json()
            == generate_scenario(seed).canonical_json())


@pytest.mark.parametrize("seed", [0, 3, 19, 108])
def test_json_round_trip(seed):
    scenario = generate_scenario(seed)
    rebuilt = Scenario.from_dict(json.loads(scenario.canonical_json()))
    assert rebuilt == scenario
    assert rebuilt.canonical_json() == scenario.canonical_json()


def test_from_dict_drops_the_scheduler_key_of_old_bundles():
    """Triage bundles written while the event queue was selectable still
    load, and replay as the scenario the same seed generates today."""
    scenario = generate_scenario(19)
    old_bundle = json.loads(scenario.canonical_json())
    old_bundle["cluster"]["scheduler"] = "heapq"
    assert Scenario.from_dict(old_bundle) == scenario


@pytest.mark.parametrize("name,value", [("shared_cache_policy", "lru"),
                                        ("metadata_prefetch", True),
                                        ("coop_provider_fraction", 0.25)])
def test_bundle_naming_a_removed_knob_fails_loudly(name, value):
    """A triage bundle written while the eviction policy, metadata
    prefetch or the coop provider fraction were knobs does not replay
    silently without them: the scenario loads, running it raises."""
    scenario = generate_scenario(19)
    old_bundle = json.loads(scenario.canonical_json())
    old_bundle["cluster"][name] = value
    with pytest.raises(TypeError):
        execute_scenario(Scenario.from_dict(old_bundle))


def test_scenarios_differ_across_seeds():
    blueprints = {generate_scenario(seed).canonical_json()
                  for seed in range(40)}
    assert len(blueprints) > 30  # near-unique; collisions would be a bug


def test_structural_validity_over_a_seed_range():
    for seed in SEEDS:
        scenario = generate_scenario(seed)
        assert 2 <= scenario.num_ranks <= MAX_RANKS
        assert 1 <= scenario.num_aggregators <= scenario.num_ranks
        assert scenario.ranks_per_node in (1, 2)
        assert scenario.chunk_size in (512, 1024, 2048)
        assert 1 <= len(scenario.phases) <= MAX_PHASES + 2  # + probe/storm
        assert scenario.phases[0].is_write
        assert scenario.file_size % scenario.chunk_size == 0
        for phase in scenario.phases:
            assert phase.kind in PHASE_KINDS
            assert workload_file_size(phase.workload, scenario.num_ranks) \
                <= scenario.file_size
            build_workload(phase.workload, scenario.num_ranks)  # materializes


def test_no_seed_draws_the_retired_straggler():
    assert "straggler" not in INJECTOR_KINDS
    for seed in SEEDS:
        kinds = [injector.kind for injector in generate_scenario(seed).injectors]
        assert "straggler" not in kinds


def test_injector_constraints_over_a_seed_range():
    for seed in SEEDS:
        scenario = generate_scenario(seed)
        for injector in scenario.injectors:
            assert injector.kind in INJECTOR_KINDS
            assert 0 <= injector.phase < len(scenario.phases)
            phase = scenario.phases[injector.phase]
            if injector.kind == "aggregator_death":
                assert phase.kind == "collective_write"
                assert scenario.num_aggregators >= 2
                assert 0 <= injector.params["rank"] < scenario.num_ranks
                # a probe phase must follow the doomed one
                assert injector.phase + 1 < len(scenario.phases)
            elif injector.kind == "resolver_death":
                assert phase.kind == "collective_read"
                assert injector.phase + 1 < len(scenario.phases)
            elif injector.kind == "hot_spot":
                assert phase.is_write
                window = phase.workload["window"]
                assert window == injector.params["window"]
                lo, span = window
                assert 0 <= lo and lo + span <= phase.workload["file_size"]
                workload = build_workload(phase.workload, scenario.num_ranks)
                extent = union_extent(workload)
                if extent is not None:
                    assert lo <= extent[0] and extent[1] <= lo + span
            elif injector.kind == "cache_thrash":
                assert injector.params["reads"] >= 1


def test_generator_reaches_every_phase_and_injector_kind():
    phase_kinds, injector_kinds = set(), set()
    for seed in range(250):
        scenario = generate_scenario(seed)
        phase_kinds.update(phase.kind for phase in scenario.phases)
        injector_kinds.update(injector.kind
                              for injector in scenario.injectors)
    assert phase_kinds == set(PHASE_KINDS)
    assert injector_kinds == set(INJECTOR_KINDS)
    assert phase_kinds >= set(WRITE_KINDS) | set(READ_KINDS)


def test_cluster_overrides_stay_in_vocabulary():
    for seed in SEEDS:
        cluster = generate_scenario(seed).cluster
        assert "engine" not in cluster
        assert "scheduler" not in cluster
        assert cluster["network_model"] in ("bottleneck", "queued")
        assert set(cluster) <= set(ClusterConfig.__dataclass_fields__)
        if cluster.get("shared_metadata_cache"):
            assert cluster["shared_cache_capacity"] in (None, 8, 16, 32, 64)


#: ``python -m repro.fuzz --max-runs 200 --seed-base 0``, as committed
RECORD = (Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
          / "fuzz_runs_seeds_0_199.ndjson")


def test_retired_draws_are_still_consumed():
    """The generator still consumes the draws that once picked an eviction
    policy, a metadata-prefetch coin, the cooperative tier (its coin and
    provider fraction, a peer-miss storm phase and a peer-daemon death),
    so every recorded seed still maps to the scenario shape it was
    recorded with — a dropped draw would shift every later field of the
    stream."""
    lines = RECORD.read_text().splitlines()
    assert len(lines) == 200
    for line in lines:
        recorded = json.loads(line)
        scenario = generate_scenario(recorded["seed"])
        assert (scenario.num_ranks, scenario.num_aggregators,
                [phase.kind for phase in scenario.phases],
                [injector.kind for injector in scenario.injectors]) \
            == (recorded["num_ranks"], recorded["num_aggregators"],
                recorded["phases"], recorded["injectors"]), recorded["seed"]
