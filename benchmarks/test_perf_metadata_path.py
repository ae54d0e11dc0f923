"""PERF — metadata read-path microbenchmarks (cache + per-level batching).

Runs the EXP1-style overlapped-write / repeated-read workload through the
three client configurations of :mod:`repro.bench.metadata_path` with one
shared harness, asserts the acceptance shape (>= 5x fewer metadata RPC
round-trips on the warm-cache path than the uncached one-RPC-per-node
baseline, byte-identical reads), and records every row — metadata RPCs,
cache hit rate, simulated seconds, wall-clock seconds — into
``BENCH_metadata.json`` at the repository root so future PRs can track the
perf trajectory.

Set ``REPRO_BENCH_SMOKE=1`` to run the same shapes on a fraction of the
work (what CI does on every push); a smoke run writes
``BENCH_metadata.smoke.json`` and leaves the committed artifact alone.
"""

import json
import os
import platform
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.common import artifact_target, write_artifact
from repro.bench.metadata_path import (
    MODES,
    MetadataPathSettings,
    run_metadata_path_suite,
    run_region_algebra_microbench,
)
from repro.bench.metrics import rpc_reduction
from repro.bench.reporting import format_table

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_metadata.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: acceptance threshold: warm-cache path vs uncached baseline round-trips
MIN_RPC_REDUCTION = 5.0


#: both cost models every suite runs under (the cost model shapes timing,
#: never bytes or RPC counts — asserted below)
NETWORK_MODELS = ("bottleneck", "queued")


def bench_settings(network_model: str = "bottleneck") -> MetadataPathSettings:
    settings = MetadataPathSettings()
    settings = settings.scaled_down() if SMOKE else settings
    return replace(settings, config=replace(settings.config,
                                            network_model=network_model))


@pytest.fixture(scope="module")
def suite():
    """Run all modes under both network models; emit the JSON artifact."""
    settings = bench_settings()
    by_model = {model: run_metadata_path_suite(bench_settings(model))
                for model in NETWORK_MODELS}
    results = by_model["bottleneck"]
    rows = [by_model[model][mode].sample.as_row()
            for model in NETWORK_MODELS for mode in MODES]
    rows.append(run_region_algebra_microbench())
    artifact = {
        "suite": "metadata-read-path",
        "smoke": SMOKE,
        "python": platform.python_version(),
        "settings": {
            "num_clients": settings.num_clients,
            "regions_per_client": settings.regions_per_client,
            "region_size": settings.region_size,
            "overlap_fraction": settings.overlap_fraction,
            "read_repeats": settings.read_repeats,
            "num_metadata_providers": settings.num_metadata_providers,
            "chunk_size": settings.chunk_size,
        },
        "network_models": list(NETWORK_MODELS),
        "rpc_reduction_vs_baseline": {
            f"{model}:{mode}": rpc_reduction(
                by_model[model]["baseline"].sample,
                by_model[model][mode].sample)
            for model in NETWORK_MODELS for mode in MODES
        },
        "rows": rows,
    }
    write_artifact(ARTIFACT, artifact)
    print()
    print(format_table(rows, title="metadata read-path microbenchmark"))
    return by_model


def test_all_modes_read_identical_bytes(suite):
    """Every mode — and every network model — returns the same bytes."""
    baseline = suite["bottleneck"]["baseline"].read_digest
    for model, results in suite.items():
        for mode in MODES:
            assert results[mode].read_digest == baseline, f"{model}:{mode}"


def test_batching_collapses_round_trips(suite):
    """One RPC per shard per level beats one RPC per node on cold reads alone."""
    for model, results in suite.items():
        assert results["batched"].sample.metadata_rpcs \
            < results["baseline"].sample.metadata_rpcs / 2, model


def test_warm_cache_rpc_reduction_at_least_5x(suite):
    """The acceptance criterion: >= 5x fewer metadata round-trips — under
    both network models (RPC counts are protocol, not cost-model)."""
    for model, results in suite.items():
        reduction = rpc_reduction(results["baseline"].sample,
                                  results["cached-batched"].sample)
        assert reduction >= MIN_RPC_REDUCTION, (
            f"{model}: only {reduction:.1f}x fewer metadata RPCs "
            f"({results['baseline'].sample.metadata_rpcs} -> "
            f"{results['cached-batched'].sample.metadata_rpcs})")


def test_rpc_counts_do_not_depend_on_the_network_model(suite):
    for mode in MODES:
        bottleneck = suite["bottleneck"][mode].sample
        queued = suite["queued"][mode].sample
        assert bottleneck.metadata_rpcs == queued.metadata_rpcs, mode
        assert bottleneck.cache_hits == queued.cache_hits, mode
        assert bottleneck.cache_misses == queued.cache_misses, mode


def test_warm_cache_hit_rate_is_high(suite):
    sample = suite["bottleneck"]["cached-batched"].sample
    assert sample.cache_hit_rate > 0.5
    # uncached modes must report a zero (not misleading) hit rate
    assert suite["bottleneck"]["baseline"].sample.cache_hit_rate == 0.0


def test_cached_reads_are_not_slower_in_simulated_time(suite):
    for model, results in suite.items():
        assert results["cached-batched"].sample.sim_elapsed_s \
            <= results["baseline"].sample.sim_elapsed_s * 1.05, model


def test_artifact_written_with_populated_columns(suite):
    artifact = json.loads(artifact_target(ARTIFACT, SMOKE).read_text())
    assert artifact["suite"] == "metadata-read-path"
    modes = {row["mode"] for row in artifact["rows"]}
    assert modes == set(MODES) | {"region-algebra"}
    for row in artifact["rows"]:
        if row["mode"] == "region-algebra":
            assert row["wall_clock_s"] > 0
            continue
        assert row["metadata_rpcs"] > 0
        assert row["wall_clock_s"] > 0
        assert "cache_hit_rate" in row and "sim_elapsed_s" in row
    assert {row.get("network_model") for row in artifact["rows"]} \
        >= set(NETWORK_MODELS)
    for model in NETWORK_MODELS:
        assert artifact["rpc_reduction_vs_baseline"][f"{model}:cached-batched"] \
            >= MIN_RPC_REDUCTION
