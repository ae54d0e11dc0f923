"""PERF — collective-write microbenchmarks (two-phase buffering).

Runs the collective checkpoint workload through the per-rank coalesced
baseline and collective buffering at several rank counts and aggregator
factors with one shared harness, asserts the acceptance shape (control
RPCs per logical collective write reduced by ~the aggregation factor
``N/A`` versus the per-rank baseline, byte-identical read-back in every
mode), and records every row — control RPCs, snapshots, exchange traffic,
simulated and wall-clock seconds — into ``BENCH_collective.json`` at the
repository root so future PRs can track the perf trajectory.

Set ``REPRO_BENCH_SMOKE=1`` to run the same shapes on a fraction of the
work (what CI does on every push); a smoke run writes
``BENCH_collective.smoke.json`` and leaves the committed artifact alone.
"""

import json
import os
import platform
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.common import artifact_target, write_artifact
from repro.bench.collective import (
    CollectiveSettings,
    run_collective_suite,
    suite_rows,
)
from repro.bench.metrics import control_rpc_reduction
from repro.bench.reporting import format_table

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_collective.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: acceptance slack: measured reduction vs the ideal aggregation factor N/A
#: (the protocol achieves the ideal exactly on this workload; the slack only
#: guards against harmless future bookkeeping shifts)
MIN_FRACTION_OF_IDEAL = 0.8


#: both cost models every suite runs under (the acceptance rows are
#: re-reported under "queued"; workload bytes must not depend on the model)
NETWORK_MODELS = ("bottleneck", "queued")


def bench_settings(network_model: str = "bottleneck") -> CollectiveSettings:
    settings = CollectiveSettings()
    settings = settings.scaled_down() if SMOKE else settings
    return replace(settings, config=replace(settings.config,
                                            network_model=network_model))


@pytest.fixture(scope="module")
def suite():
    """Run every point under both network models; emit the JSON artifact."""
    settings = bench_settings()
    results = {model: run_collective_suite(bench_settings(model))
               for model in NETWORK_MODELS}
    rows = [row for model in NETWORK_MODELS
            for row in suite_rows(results[model])]

    reductions = {}
    for model in NETWORK_MODELS:
        for key, result in results[model].items():
            sample = result.sample
            if sample.num_aggregators:
                baseline = results[model][f"N{sample.num_ranks}:independent"]
                reductions[f"{model}:{key}"] = {
                    "reduction": control_rpc_reduction(baseline.sample, sample),
                    "ideal": sample.num_ranks / sample.num_aggregators,
                }

    artifact = {
        "suite": "collective-buffering",
        "smoke": SMOKE,
        "python": platform.python_version(),
        "settings": {
            "rank_counts": list(settings.rank_counts),
            "aggregator_counts": list(settings.aggregator_counts),
            "rounds": settings.rounds,
            "blocks_per_rank": settings.blocks_per_rank,
            "block_size": settings.block_size,
            "num_providers": settings.num_providers,
            "num_metadata_providers": settings.num_metadata_providers,
            "chunk_size": settings.chunk_size,
        },
        "network_models": list(NETWORK_MODELS),
        "control_rpc_reduction_vs_independent": reductions,
        "rows": rows,
    }
    write_artifact(ARTIFACT, artifact)
    print()
    print(format_table(rows, title="collective-write microbenchmark"))
    return results


def test_all_modes_read_identical_bytes(suite):
    """The conformance core, repeated at benchmark scale: every mode of one
    rank count leaves byte-identical file contents — under *both* network
    models (the cost model shapes timing, never data)."""
    settings = bench_settings()
    for num_ranks in settings.rank_counts:
        expected = settings.workload(num_ranks).expected_contents()
        for model, results in suite.items():
            for key, result in results.items():
                if key.startswith(f"N{num_ranks}:"):
                    assert result.read_digest == expected, f"{model}:{key}"


def test_control_rpcs_drop_by_the_aggregation_factor(suite):
    """The acceptance criterion: reduction ~= N/A at every collective point,
    re-reported under the queued model as well."""
    for model, results in suite.items():
        for key, result in results.items():
            sample = result.sample
            if not sample.num_aggregators:
                continue
            baseline = results[f"N{sample.num_ranks}:independent"]
            reduction = control_rpc_reduction(baseline.sample, sample)
            ideal = sample.num_ranks / sample.num_aggregators
            assert reduction >= MIN_FRACTION_OF_IDEAL * ideal, (
                f"{model}:{key}: only {reduction:.2f}x fewer control RPCs "
                f"per write (aggregation factor {ideal:.2f})")


def test_aggregation_folds_snapshots_per_round(suite):
    """N ranks, A aggregators, R rounds -> A snapshots per round, with the
    logical write count unchanged."""
    for model, results in suite.items():
        for key, result in results.items():
            sample = result.sample
            baseline = results[f"N{sample.num_ranks}:independent"]
            assert sample.logical_writes \
                == baseline.sample.logical_writes, f"{model}:{key}"
            if sample.num_aggregators:
                assert sample.snapshots \
                    == sample.num_aggregators * sample.rounds, f"{model}:{key}"
            else:
                assert sample.snapshots \
                    == sample.num_ranks * sample.rounds, f"{model}:{key}"


def test_exchange_traffic_is_reported_for_collective_modes(suite):
    """The aggregation trade — MPI exchange instead of control RPCs — must
    be visible in the artifact, not hidden."""
    for model, results in suite.items():
        for key, result in results.items():
            sample = result.sample
            if sample.num_aggregators:
                assert sample.exchange_bytes > 0, f"{model}:{key}"
            else:
                assert sample.exchange_bytes == 0, f"{model}:{key}"


def test_rpc_counts_do_not_depend_on_the_network_model(suite):
    """The control-plane story — RPCs, snapshots, exchange bytes — is a
    function of the protocol, not of the cost model underneath it."""
    for key, bottleneck in suite["bottleneck"].items():
        queued = suite["queued"][key]
        for column in ("logical_writes", "snapshots", "control_rpcs",
                       "metadata_put_rpcs", "exchange_bytes"):
            assert getattr(bottleneck.sample, column) \
                == getattr(queued.sample, column), f"{key}:{column}"


def test_artifact_written_with_populated_columns(suite):
    artifact = json.loads(artifact_target(ARTIFACT, SMOKE).read_text())
    assert artifact["suite"] == "collective-buffering"
    assert artifact["rows"]
    modes = {row["mode"] for row in artifact["rows"]}
    assert "independent" in modes
    assert any(mode.startswith("collective-a") for mode in modes)
    assert {row["network_model"] for row in artifact["rows"]} \
        == set(NETWORK_MODELS)
    for row in artifact["rows"]:
        assert row["logical_writes"] > 0
        assert row["control_rpcs"] > 0
        assert row["wall_clock_s"] > 0
        assert "control_rpcs_per_write" in row and "sim_write_s" in row
    reductions = artifact["control_rpc_reduction_vs_independent"]
    assert reductions
    for entry in reductions.values():
        assert entry["reduction"] >= MIN_FRACTION_OF_IDEAL * entry["ideal"]
