"""Seed-pinned fuzzer regressions.

The first 2000-seed sweep of the finished fuzzer came back clean, so —
per the fuzzer's landing contract — these pin the lowest seeds whose
generated scenarios exercise each injected-hostility path that flagged
while the fuzzer itself was being brought up (mis-masked death windows,
adversary reads against half-published versions).  If a future change reintroduces any of those
bugs, the matching seed flags again right here, with full replay:

    python -m repro.fuzz --replay <seed>

Each seed is the lowest one whose scenario *fires* the named injector —
dormant arms don't regress anything.
"""

from pathlib import Path

import pytest

from repro.fuzz.generator import generate_scenario
from repro.fuzz.report import run_line
from repro.fuzz.runner import execute_scenario

#: seed -> the injector kind the scenario is pinned to fire
PINNED = {
    3: "cache_thrash",       # adversary churn against live metadata
    19: "aggregator_death",  # torn stripe commit, one ticket aborted
    108: "resolver_death",   # collective read dies, no ticket touched
}


@pytest.mark.parametrize("seed,kind", sorted(PINNED.items()))
def test_pinned_seed_fires_its_injector_and_stays_clean(seed, kind):
    scenario = generate_scenario(seed)
    assert kind in [injector.kind for injector in scenario.injectors], \
        f"seed {seed} no longer generates a {kind} scenario — the " \
        "generator's seed mapping changed; re-pin the regression seeds"
    result = execute_scenario(scenario)
    assert kind in result.fired, \
        f"seed {seed}: {kind} armed but never fired (containment untested)"
    assert not result.flagged, result.all_anomalies()


def test_pinned_seeds_replay_byte_identically():
    for seed in PINNED:
        scenario = generate_scenario(seed)
        assert run_line(execute_scenario(scenario)) \
            == run_line(execute_scenario(scenario)), f"seed {seed}"


#: ``python -m repro.fuzz --max-runs 200 --seed-base 0`` as recorded at an
#: earlier commit; CI sweeps the whole range and ``cmp``s against it
RECORD = (Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
          / "fuzz_runs_seeds_0_199.ndjson")


def test_pinned_seeds_match_the_cross_commit_record():
    """Replay across commits, not just within one: the hostile seeds must
    reproduce their recorded line — events, simulated time, digest — byte
    for byte.  A change that means to move a timeline re-records the file."""
    recorded = RECORD.read_text().splitlines()
    for seed in PINNED:
        assert run_line(execute_scenario(generate_scenario(seed))) \
            == recorded[seed], f"seed {seed}"


#: seeds whose recorded bytes (``read_digest``) moved when the bounded
#: shared pool's eviction changed: a bounded pool, then an atomic_write
#: phase of overlapping regions, where the timing picks which serial order
#: wins — the oracle must accept it
EVICTION_PINNED = (70, 172)


@pytest.mark.parametrize("seed", EVICTION_PINNED)
def test_bounded_pool_seed_stays_clean_and_recorded(seed):
    scenario = generate_scenario(seed)
    assert scenario.cluster.get("shared_cache_capacity") is not None
    assert any(phase.kind == "atomic_write"
               and phase.workload["family"] == "overlap"
               for phase in scenario.phases)
    result = execute_scenario(scenario)
    assert not result.flagged, result.all_anomalies()
    assert run_line(result) == RECORD.read_text().splitlines()[seed]
