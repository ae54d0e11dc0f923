"""Injector liveness: every runtime injector proven to actually fire.

The generator only rolls an injector when its preconditions line up, so
these suites pin hand-built scenarios where each injector is *guaranteed*
to trigger — and assert both that it fired and that the run still judges
clean (the containment contracts absorb the injected hostility).
"""

import pytest

from repro.errors import BenchmarkError
from repro.fuzz.injectors import (
    AggregatorDeath,
    CacheThrash,
    HotSpot,
    ResolverDeath,
    build_injectors,
    death_injector_for_phase,
)
from repro.fuzz.runner import execute_scenario
from repro.fuzz.scenario import InjectorSpec, PhaseSpec, build_workload
from repro.mpiio.adio.collective import aggregator_ranks
from tests._workloads import union_extent
from tests.fuzz._scenlib import CHECKPOINT, checkpoint_phase, \
    make_scenario, random_workload

NUM_RANKS = 4
NUM_AGGREGATORS = 2
DOOMED = aggregator_ranks(NUM_RANKS, NUM_AGGREGATORS)[-1]


def run_clean(scenario):
    result = execute_scenario(scenario)
    assert not result.flagged, result.all_anomalies()
    return result


def test_build_injectors_maps_kinds():
    specs = [InjectorSpec(kind="aggregator_death", phase=0,
                          params={"rank": 0}),
             InjectorSpec(kind="resolver_death", phase=1,
                          params={"rank": 0}),
             InjectorSpec(kind="cache_thrash", phase=0,
                          params={"reads": 4, "max_size": 256}),
             InjectorSpec(kind="hot_spot", phase=0,
                          params={"window": [0, 1024]})]
    injectors = build_injectors(specs)
    assert [type(injector) for injector in injectors] == [
        AggregatorDeath, ResolverDeath, CacheThrash, HotSpot]
    assert death_injector_for_phase(injectors, 0) is injectors[0]
    assert death_injector_for_phase(injectors, 1) is injectors[1]
    assert death_injector_for_phase(injectors, 2) is None


def test_retired_straggler_kind_is_rejected():
    with pytest.raises(BenchmarkError, match="straggler"):
        InjectorSpec(kind="straggler", phase=0,
                     params={"rank": 1, "max_delay": 0.005, "delay": 0.05})


def test_aggregator_death_fires_aborts_and_contains():
    scenario = make_scenario(
        num_ranks=NUM_RANKS, num_aggregators=NUM_AGGREGATORS,
        phases=[checkpoint_phase("collective_write"), checkpoint_phase()],
        injectors=[InjectorSpec(kind="aggregator_death", phase=0,
                                params={"rank": DOOMED})])
    result = run_clean(scenario)
    assert result.fired == ["aggregator_death"]
    assert result.dormant == []
    # the fired death aborted exactly one ticket, yet the chain healed:
    # a clean version_monotonicity checker is only possible if
    # tickets_aborted == 1 matched the expectation
    assert result.latest_version is not None


def test_resolver_death_fires_and_contains():
    scenario = make_scenario(
        num_ranks=NUM_RANKS, num_aggregators=NUM_AGGREGATORS,
        phases=[checkpoint_phase("collective_write"),
                checkpoint_phase("collective_read"),
                checkpoint_phase()],
        injectors=[InjectorSpec(kind="resolver_death", phase=1,
                                params={"rank": DOOMED})])
    result = run_clean(scenario)
    assert result.fired == ["resolver_death"]


def test_cache_thrash_adversary_runs_alongside_the_job():
    scenario = make_scenario(
        num_ranks=NUM_RANKS, num_aggregators=NUM_AGGREGATORS,
        phases=[checkpoint_phase("collective_write"),
                checkpoint_phase("collective_read")],
        injectors=[InjectorSpec(kind="cache_thrash", phase=0,
                                params={"reads": 6, "max_size": 512})])
    result = run_clean(scenario)
    assert result.fired == ["cache_thrash"]


def test_hot_spot_window_confines_the_workload():
    workload = random_workload(seed=21, file_size=16 * 1024,
                               window=[2048, 2048], max_region_size=400)
    scenario = make_scenario(
        num_ranks=NUM_RANKS, num_aggregators=NUM_AGGREGATORS,
        phases=[PhaseSpec(kind="collective_write", workload=workload)],
        injectors=[InjectorSpec(kind="hot_spot", phase=0,
                                params={"window": [2048, 2048]})])
    built = build_workload(workload, NUM_RANKS)
    lo, hi = union_extent(built)
    assert 2048 <= lo and hi <= 4096
    result = run_clean(scenario)
    assert result.fired == ["hot_spot"]


def test_dormant_death_heals_and_reports_dormant():
    # every rank shows up empty-handed (seed 0 at chance 0.9 rolls empty
    # for all four ranks): no stripe ever commits, so the one-shot patch
    # never fires — it must heal, not leak or flag
    workload = random_workload(seed=0, file_size=16 * 1024,
                               empty_rank_chance=0.9)
    scenario = make_scenario(
        num_ranks=NUM_RANKS, num_aggregators=NUM_AGGREGATORS,
        phases=[PhaseSpec(kind="collective_write", workload=workload),
                checkpoint_phase("collective_write")],
        injectors=[InjectorSpec(kind="aggregator_death", phase=0,
                                params={"rank": DOOMED})])
    result = run_clean(scenario)
    assert result.fired == []
    assert result.dormant == ["aggregator_death"]


def test_atomic_writers_with_overlap_stay_clean():
    workload = {"family": "overlap", "regions_per_client": 3,
                "region_size": 700, "overlap_fraction": 0.5}
    scenario = make_scenario(
        num_ranks=3, num_aggregators=2,
        phases=[PhaseSpec(kind="atomic_write", workload=workload),
                PhaseSpec(kind="independent_read",
                          workload=dict(CHECKPOINT))])
    run_clean(scenario)
