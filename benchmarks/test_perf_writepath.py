"""PERF — write-pipeline microbenchmarks (coalescing + overlapped commits).

Runs the queued-small-writes workload through the three write-path
configurations of :mod:`repro.bench.writepath` with one shared harness,
asserts the acceptance shape (>= 2x fewer control-plane round-trips per
logical write for the pipelined+coalesced path vs the serialized baseline,
write-through cache warmth from the very first read, byte-identical
read-back in every mode), and records every row — control RPCs, coalescing
factor, cache hit rates, simulated and wall-clock seconds — into
``BENCH_writepath.json`` at the repository root so future PRs can track the
perf trajectory.  A cache-capacity sweep (LRU-bounded metadata caches)
rides along in the same artifact.

Set ``REPRO_BENCH_SMOKE=1`` to run the same shapes on a fraction of the
work (what CI does on every push); a smoke run writes
``BENCH_writepath.smoke.json`` and leaves the committed artifact alone.
"""

import json
import os
import platform
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.common import artifact_target, write_artifact
from repro.bench.metrics import control_rpc_reduction
from repro.bench.reporting import format_table
from repro.bench.writepath import (
    WRITE_MODES,
    WritePathSettings,
    run_cache_capacity_sweep,
    run_write_path_suite,
)

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_writepath.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: acceptance threshold: coalesced+pipelined vs baseline control round-trips
#: per logical write
MIN_CONTROL_RPC_REDUCTION = 2.0


#: both cost models every suite runs under (the cost model shapes timing,
#: never bytes or RPC counts — asserted below)
NETWORK_MODELS = ("bottleneck", "queued")


def bench_settings(network_model: str = "bottleneck") -> WritePathSettings:
    settings = WritePathSettings()
    settings = settings.scaled_down() if SMOKE else settings
    return replace(settings, config=replace(settings.config,
                                            network_model=network_model))


@pytest.fixture(scope="module")
def suite():
    """Run all modes under both network models; emit the JSON artifact."""
    settings = bench_settings()
    by_model = {model: run_write_path_suite(bench_settings(model))
                for model in NETWORK_MODELS}
    results = by_model["bottleneck"]
    sweep_rows = run_cache_capacity_sweep(
        settings, unbounded=results["pipelined-coalesced"])
    rows = [by_model[model][mode].sample.as_row()
            for model in NETWORK_MODELS for mode in WRITE_MODES]
    artifact = {
        "suite": "write-pipeline",
        "smoke": SMOKE,
        "python": platform.python_version(),
        "settings": {
            "num_clients": settings.num_clients,
            "writes_per_client": settings.writes_per_client,
            "regions_per_write": settings.regions_per_write,
            "region_size": settings.region_size,
            "hole_size": settings.hole_size,
            "read_repeats": settings.read_repeats,
            "num_providers": settings.num_providers,
            "num_metadata_providers": settings.num_metadata_providers,
            "chunk_size": settings.chunk_size,
        },
        "network_models": list(NETWORK_MODELS),
        "control_rpc_reduction_vs_baseline": {
            f"{model}:{mode}": control_rpc_reduction(
                by_model[model]["baseline"].sample,
                by_model[model][mode].sample)
            for model in NETWORK_MODELS for mode in WRITE_MODES
        },
        "rows": rows,
        "cache_capacity_sweep": sweep_rows,
    }
    write_artifact(ARTIFACT, artifact)
    print()
    print(format_table(rows, title="write-pipeline microbenchmark"))
    print(format_table(sweep_rows, title="cache capacity sweep"))
    return by_model


def test_all_modes_read_identical_bytes(suite):
    """Every mode — and every network model — returns the same bytes."""
    baseline = suite["bottleneck"]["baseline"].read_digest
    for model, results in suite.items():
        for mode in WRITE_MODES:
            assert results[mode].read_digest == baseline, f"{model}:{mode}"


def test_coalescing_folds_writes_into_fewer_snapshots(suite):
    for model, results in suite.items():
        baseline = results["baseline"].sample
        coalesced = results["pipelined-coalesced"].sample
        assert baseline.coalescing_factor == 1.0, model
        assert results["pipelined"].sample.coalescing_factor == 1.0, model
        assert coalesced.coalescing_factor > 1.5, model
        assert coalesced.logical_writes == baseline.logical_writes, model
        assert coalesced.snapshots < baseline.snapshots, model


def test_control_rpc_reduction_at_least_2x(suite):
    """The acceptance criterion: >= 2x fewer control round-trips per write —
    under both network models (RPC counts are protocol, not cost-model)."""
    for model, results in suite.items():
        reduction = control_rpc_reduction(results["baseline"].sample,
                                          results["pipelined-coalesced"].sample)
        assert reduction >= MIN_CONTROL_RPC_REDUCTION, (
            f"{model}: only {reduction:.2f}x fewer control RPCs per write")


def test_rpc_counts_do_not_depend_on_the_network_model(suite):
    for mode in WRITE_MODES:
        bottleneck = suite["bottleneck"][mode].sample
        queued = suite["queued"][mode].sample
        for column in ("logical_writes", "snapshots", "control_rpcs",
                       "metadata_put_rpcs"):
            assert getattr(bottleneck, column) \
                == getattr(queued, column), f"{mode}:{column}"


def test_write_through_cache_is_warm_from_the_first_read(suite):
    """Write-through population: read-after-write hits before any fetch."""
    results = suite["bottleneck"]
    assert results["baseline"].sample.first_read_cache_hit_rate == 0.0
    assert results["pipelined"].sample.first_read_cache_hit_rate > 0.0
    # a coalesced writer published its whole span in one snapshot, so its
    # first read-back traversal runs almost entirely out of its own cache
    assert results["pipelined-coalesced"].sample.first_read_cache_hit_rate > 0.5


def test_pipelining_does_not_slow_the_write_phase(suite):
    for model, results in suite.items():
        assert results["pipelined"].sample.sim_write_s \
            <= results["baseline"].sample.sim_write_s * 1.05, model
        assert results["pipelined-coalesced"].sample.sim_write_s \
            <= results["baseline"].sample.sim_write_s * 1.05, model


def test_artifact_written_with_populated_columns(suite):
    artifact = json.loads(artifact_target(ARTIFACT, SMOKE).read_text())
    assert artifact["suite"] == "write-pipeline"
    modes = {row["mode"] for row in artifact["rows"]}
    assert modes == set(WRITE_MODES)
    for row in artifact["rows"]:
        assert row["logical_writes"] > 0
        assert row["control_rpcs"] > 0
        assert row["wall_clock_s"] > 0
        assert "coalescing_factor" in row and "first_read_cache_hit_rate" in row
    assert {row["network_model"] for row in artifact["rows"]} \
        == set(NETWORK_MODELS)
    for model in NETWORK_MODELS:
        assert artifact["control_rpc_reduction_vs_baseline"][
            f"{model}:pipelined-coalesced"] >= MIN_CONTROL_RPC_REDUCTION
    sweep = artifact["cache_capacity_sweep"]
    assert len(sweep) >= 2
    capacities = [row["capacity"] for row in sweep]
    assert "unbounded" in capacities
    bounded = [row for row in sweep if row["capacity"] != "unbounded"]
    assert any(row["cache_evictions"] > 0 for row in bounded), (
        "the sweep's bounded capacities never evicted — shrink the capacities")
