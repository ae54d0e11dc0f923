"""PERF — collective-write microbenchmarks (two-phase buffering).

Runs the collective checkpoint workload through the per-rank coalesced
baseline and collective buffering at several rank counts and aggregator
factors with one shared harness, asserts the acceptance shape (control
RPCs per logical collective write reduced by ~the aggregation factor
``N/A`` versus the per-rank baseline, byte-identical read-back in every
mode), and records every row — control RPCs, snapshots, exchange traffic,
simulated seconds — into ``BENCH_collective.json`` at the
repository root so future PRs can track the perf trajectory.

The points, columns and settings are the ``collective`` entry of
``repro.bench.suites.SUITES``; ``benchmarks/README.md`` says how to run it
at either size.
"""

import json

import pytest

from benchmarks.common import REPO_ROOT
from repro.bench.collective import checkpoint_workload
from repro.bench.metrics import reduction
from repro.bench.suites import run_suite

#: acceptance slack: measured reduction vs the ideal aggregation factor N/A
#: (the protocol achieves the ideal exactly on this workload; the slack only
#: guards against harmless future bookkeeping shifts)
MIN_FRACTION_OF_IDEAL = 0.8


@pytest.fixture(scope="module")
def suite():
    """Run every point; emit the JSON artifact."""
    return run_suite("collective", out_dir=REPO_ROOT)


def test_all_modes_read_identical_bytes(suite):
    """The conformance core, repeated at benchmark scale: every mode of one
    rank count leaves byte-identical file contents."""
    for num_ranks in suite.settings.rank_counts:
        expected = checkpoint_workload(suite.settings,
                                       num_ranks).expected_contents()
        for key, point in suite.points.items():
            if key.startswith(f"N{num_ranks}:"):
                assert point["read_digest"] == expected, key


def test_control_rpcs_drop_by_the_aggregation_factor(suite):
    """The acceptance criterion: reduction ~= N/A at every collective point."""
    points = suite.points
    for key, point in points.items():
        if not point["aggregators"]:
            continue
        baseline = points[f"N{point['ranks']}:independent"]
        ratio = reduction(baseline, point, "control_rpcs_per_write")
        ideal = point["ranks"] / point["aggregators"]
        assert ratio >= MIN_FRACTION_OF_IDEAL * ideal, (
            f"{key}: only {ratio:.2f}x fewer control RPCs "
            f"per write (aggregation factor {ideal:.2f})")


def test_aggregation_folds_snapshots_per_round(suite):
    """N ranks, A aggregators, R rounds -> A snapshots per round, with the
    logical write count unchanged."""
    points = suite.points
    for key, point in points.items():
        baseline = points[f"N{point['ranks']}:independent"]
        assert point["logical_writes"] == baseline["logical_writes"], key
        writers = point["aggregators"] or point["ranks"]
        assert point["snapshots"] == writers * point["rounds"], key


def test_exchange_traffic_is_reported_for_collective_modes(suite):
    """The aggregation trade — MPI exchange instead of control RPCs — must
    be visible in the artifact, not hidden."""
    for key, point in suite.points.items():
        if point["aggregators"]:
            assert point["exchange_bytes"] > 0, key
        else:
            assert point["exchange_bytes"] == 0, key


def test_artifact_written_with_populated_columns(suite):
    artifact = json.loads(suite.path.read_text())
    assert artifact["suite"] == "collective-buffering"
    assert artifact["rows"]
    modes = {row["mode"] for row in artifact["rows"]}
    assert "independent" in modes
    assert any(mode.startswith("collective-a") for mode in modes)
    for row in artifact["rows"]:
        assert row["logical_writes"] > 0
        assert row["control_rpcs"] > 0
        assert "control_rpcs_per_write" in row and "sim_write_s" in row
    reductions = artifact["control_rpc_reduction_vs_independent"]
    assert reductions
    for entry in reductions.values():
        assert entry["reduction"] >= MIN_FRACTION_OF_IDEAL * entry["ideal"]
