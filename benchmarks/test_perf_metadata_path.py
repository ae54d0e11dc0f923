"""PERF — metadata read-path microbenchmarks (cache + per-level batching).

Runs the EXP1-style overlapped-write / repeated-read workload through the
client configurations of :mod:`repro.bench.metadata_path` with one shared
harness, asserts the acceptance shape (>= 5x fewer metadata RPC round-trips
on the warm-cache path than one ``get_node`` per lookup, byte-identical
reads), and records every row — lookups, metadata RPCs, cache hit rate,
simulated seconds, wall-clock seconds — into
``BENCH_metadata.json`` at the repository root so future PRs can track the
perf trajectory.

The points, columns and settings are the ``metadata`` entry of
``repro.bench.suites.SUITES``; ``benchmarks/README.md`` says how to run it
at either size.
"""

import json

import pytest

from benchmarks.common import REPO_ROOT
from repro.bench.metadata_path import MODES
from repro.bench.suites import run_suite

#: acceptance threshold: warm-cache path vs one round-trip per lookup
MIN_RPC_REDUCTION = 5.0


@pytest.fixture(scope="module")
def suite():
    """Run all modes; emit the JSON artifact."""
    return run_suite("metadata", out_dir=REPO_ROOT)


def test_all_modes_read_identical_bytes(suite):
    batched = suite.points["batched"]["read_digest"]
    for mode in MODES:
        assert suite.points[mode]["read_digest"] == batched, mode


def test_batching_collapses_round_trips(suite):
    """One RPC per shard per level beats one RPC per node on cold reads alone."""
    batched = suite.points["batched"]
    assert batched["metadata_rpcs"] < batched["lookups"] / 2


def test_warm_cache_rpc_reduction_at_least_5x(suite):
    """The acceptance criterion: >= 5x fewer metadata round-trips."""
    cached = suite.points["cached-batched"]
    ratio = cached["lookups"] / cached["metadata_rpcs"]
    assert ratio >= MIN_RPC_REDUCTION, (
        f"only {ratio:.1f}x fewer metadata RPCs than lookups "
        f"({cached['lookups']} -> {cached['metadata_rpcs']})")


def test_every_mode_walks_the_same_lookups(suite):
    assert len({suite.points[mode]["lookups"] for mode in MODES}) == 1


def test_warm_cache_hit_rate_is_high(suite):
    points = suite.points
    assert points["cached-batched"]["cache_hit_rate"] > 0.5
    # an uncached mode must report a zero (not misleading) hit rate
    assert points["batched"]["cache_hit_rate"] == 0.0


def test_cached_reads_are_not_slower_in_simulated_time(suite):
    points = suite.points
    assert points["cached-batched"]["sim_elapsed_s"] \
        <= points["batched"]["sim_elapsed_s"] * 1.05


def test_artifact_written_with_populated_columns(suite):
    artifact = json.loads(suite.path.read_text())
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
    assert artifact["rpc_reduction_vs_per_node"]["cached-batched"] \
        >= MIN_RPC_REDUCTION
