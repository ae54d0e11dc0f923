"""Determinism of the exact metrics, and the harness's own accounting.

Smoke shapes throughout: these tests check the harness, not the numbers.
"""

import math

import pytest

from perfbench import measure
from perfbench.metrics import BY_NAME, PER_LAYER
from perfbench.workloads import WORKLOADS

VERSIONING = [name for name, workload in WORKLOADS.items()
              if workload.backend == "versioning"]


@pytest.fixture(scope="module")
def traces():
    """Two traced runs of every workload on one seed."""
    return {name: [measure.per_layer(name, seed=5, seconds=0, smoke=True)
                   for _ in range(2)]
            for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_every_exact_metric(traces, name):
    first, second = traces[name]
    assert first["correct"] and second["correct"], first["problems"]
    assert set(first["metrics"]) == {metric.name for metric in PER_LAYER}
    exact = [metric.name for metric in PER_LAYER if metric.exact]
    assert any(name.endswith(".calls") for name in exact)
    for metric in exact:
        assert first["metrics"][metric]["value"] \
            == second["metrics"][metric]["value"], metric
    assert first["metrics"]["host.calls"]["value"] > 0
    assert first["metrics"]["simengine.events"]["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_every_simulated_metric(name):
    workload = WORKLOADS[name]
    runs = [workload.run(workload.inputs(5, smoke=True)) for _ in range(2)]
    assert measure.sim_metrics(runs[0]) == measure.sim_metrics(runs[1])
    assert all(value > 0 for value in measure.sim_metrics(runs[0]).values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_changes_the_inputs(name):
    workload = WORKLOADS[name]
    assert workload.inputs(5, smoke=True).fingerprint() \
        == workload.inputs(5, smoke=True).fingerprint()
    assert workload.inputs(5, smoke=True).fingerprint() \
        != workload.inputs(6, smoke=True).fingerprint()
    ours = measure.sim_metrics(workload.run(workload.inputs(5, smoke=True)))
    theirs = measure.sim_metrics(workload.run(workload.inputs(6, smoke=True)))
    assert ours != theirs


def test_twins_get_the_same_inputs():
    for name, workload in WORKLOADS.items():
        if workload.twin is not None:
            assert WORKLOADS[workload.twin].twin == name
            assert workload.inputs(3, smoke=True).fingerprint() \
                == WORKLOADS[workload.twin].inputs(3, smoke=True).fingerprint()


@pytest.mark.parametrize("name", VERSIONING)
def test_critpath_layers_partition_the_operations_time(traces, name):
    record = traces[name][0]
    layers = sum(entry["value"] for metric, entry in record["metrics"].items()
                 if metric.startswith("critpath."))
    total = record["detail"]["operations_sim_s"]
    assert total > 0
    assert math.isclose(layers, total, rel_tol=1e-9)


def test_every_workload_verifies_and_a_corrupt_read_is_caught():
    for name, workload in WORKLOADS.items():
        inputs = workload.inputs(0, smoke=True)
        run = workload.run(inputs)
        assert run.raised == 0
        assert workload.verify(inputs, run).mismatches == [], name
        key = next(iter(run.reads))
        run.reads[key] = []
        assert workload.verify(inputs, run).mismatches, name


def test_fidelity_is_reported_beside_the_paper_band(traces):
    for name, workload in WORKLOADS.items():
        metrics = traces[name][0]["metrics"]
        speedup = metrics["fidelity.speedup_vs_locking"]["value"]
        assert (speedup > 0) == (workload.twin is not None)
        assert metrics["fidelity.in_paper_band"]["value"] \
            == float(3.5 <= speedup <= 10.0)
    assert BY_NAME["fidelity.speedup_vs_locking"].bound is None
