"""PERF — write-pipeline microbenchmarks (coalescing + overlapped commits).

Runs the queued-small-writes workload through the three write-path
configurations of :mod:`repro.bench.writepath` with one shared harness,
asserts the acceptance shape (>= 2x fewer control-plane round-trips per
logical write for the pipelined+coalesced path vs the blocking baseline,
write-through cache warmth from the very first read, byte-identical
read-back in every mode), and records every row — control RPCs, coalescing
factor, cache hit rates, simulated seconds — into
``BENCH_writepath.json`` at the repository root so future PRs can track the
perf trajectory.  A cache-capacity sweep (LRU-bounded metadata caches)
rides along in the same artifact.

The points, columns and settings are the ``writepath`` entry of
``repro.bench.suites.SUITES``; ``benchmarks/README.md`` says how to run it
at either size.
"""

import json

import pytest

from benchmarks.common import REPO_ROOT
from repro.bench.metrics import reduction
from repro.bench.suites import run_suite
from repro.bench.writepath import WRITE_MODES

#: acceptance threshold: coalesced+pipelined vs baseline control round-trips
#: per logical write
MIN_CONTROL_RPC_REDUCTION = 2.0


@pytest.fixture(scope="module")
def suite():
    """Run all modes; emit the JSON artifact."""
    return run_suite("writepath", out_dir=REPO_ROOT)


def test_all_modes_read_identical_bytes(suite):
    baseline = suite.points["baseline"]["read_digest"]
    for mode in WRITE_MODES:
        assert suite.points[mode]["read_digest"] == baseline, mode


def test_coalescing_folds_writes_into_fewer_snapshots(suite):
    points = suite.points
    baseline = points["baseline"]
    coalesced = points["pipelined-coalesced"]
    assert baseline["coalescing_factor"] == 1.0
    assert points["pipelined"]["coalescing_factor"] == 1.0
    assert coalesced["coalescing_factor"] > 1.5
    assert coalesced["logical_writes"] == baseline["logical_writes"]
    assert coalesced["snapshots"] < baseline["snapshots"]


def test_control_rpc_reduction_at_least_2x(suite):
    """The acceptance criterion: >= 2x fewer control round-trips per write."""
    points = suite.points
    ratio = reduction(points["baseline"], points["pipelined-coalesced"],
                      "control_rpcs_per_write")
    assert ratio >= MIN_CONTROL_RPC_REDUCTION, (
        f"only {ratio:.2f}x fewer control RPCs per write")


def test_write_through_cache_is_warm_from_the_first_read(suite):
    """Write-through population: read-after-write hits before any fetch."""
    points = suite.points
    assert points["baseline"]["first_read_cache_hit_rate"] == 0.0
    assert points["pipelined"]["first_read_cache_hit_rate"] > 0.0
    # a coalesced writer published its whole span in one snapshot, so its
    # first read-back traversal runs almost entirely out of its own cache
    assert points["pipelined-coalesced"]["first_read_cache_hit_rate"] > 0.5


def test_pipelining_does_not_slow_the_write_phase(suite):
    points = suite.points
    for mode in ("pipelined", "pipelined-coalesced"):
        assert points[mode]["sim_write_s"] \
            <= points["baseline"]["sim_write_s"] * 1.05, mode


def test_artifact_written_with_populated_columns(suite):
    artifact = json.loads(suite.path.read_text())
    assert artifact["suite"] == "write-pipeline"
    modes = {row["mode"] for row in artifact["rows"]}
    assert modes == set(WRITE_MODES)
    for row in artifact["rows"]:
        assert row["logical_writes"] > 0
        assert row["control_rpcs"] > 0
        assert "coalescing_factor" in row and "first_read_cache_hit_rate" in row
    assert artifact["control_rpc_reduction_vs_baseline"][
        "pipelined-coalesced"] >= MIN_CONTROL_RPC_REDUCTION
    sweep = artifact["cache_capacity_sweep"]
    assert len(sweep) >= 2
    capacities = [row["capacity"] for row in sweep]
    assert "unbounded" in capacities
    bounded = [row for row in sweep if row["capacity"] != "unbounded"]
    assert any(row["cache_evictions"] > 0 for row in bounded), (
        "the sweep's bounded capacities never evicted — shrink the capacities")
