"""PERF — cooperative cross-node metadata cache microbenchmarks.

Runs the identical-extent shared scan at a fixed ``ranks_per_node`` while
the compute-node count grows, with the node-local shared tier alone
(``shared``, the ``1/ranks_per_node`` ideal) and with the cooperative
peer tier on top (``coop``).  Asserts the acceptance shape — server-side
metadata shard RPCs per logical read strictly below the node-local ideal
whenever there is more than one node, and still *falling* as nodes are
added at a fixed ``ranks_per_node`` — plus byte-identical scan data
everywhere, exact zero-footprint when the tier is disabled (every peer
counter zero), and live in-flight fetch coalescing on the contended zero-stagger point.  Records
every row into ``BENCH_coopcache.json`` at the repository root so future
PRs can track the perf trajectory.

The points, columns and settings are the ``coopcache`` entry of
``repro.bench.suites.SUITES``; ``benchmarks/README.md`` says how to run it
at either size.
"""

import json

import pytest

from benchmarks.common import REPO_ROOT, expected_scan_bytes
from repro.bench.scan import scan_workload
from repro.bench.suites import run_suite


@pytest.fixture(scope="module")
def suite():
    """Run every point; emit the JSON artifact."""
    return run_suite("coopcache", out_dir=REPO_ROOT)


def test_all_points_read_identical_bytes(suite):
    """Every mode and node count returns byte-identical scan data — the
    cooperative tier and fetch coalescing must never change results."""
    for key, point in suite.points.items():
        expected = expected_scan_bytes(
            scan_workload(suite.settings, point["clients"]))
        assert point["read_digest"] == expected, key


def test_coop_tier_beats_the_node_local_ideal(suite):
    """The acceptance criterion: with more than one compute node, the
    cooperative tier pushes authoritative shard RPCs per logical read
    strictly below the node-local shared tier (the ``1/ranks_per_node``
    ideal)."""
    multi = [n for n in suite.settings.node_counts if n >= 2]
    assert multi, "suite must sweep at least one multi-node point"
    for num_nodes in multi:
        baseline = suite.points[f"n{num_nodes}:shared"]
        coop = suite.points[f"n{num_nodes}:coop"]
        assert coop["server_rpcs_per_read"] \
            < baseline["server_rpcs_per_read"], (
                f"n{num_nodes}: coop "
                f"{coop['server_rpcs_per_read']:.3f} vs node-local ideal "
                f"{baseline['server_rpcs_per_read']:.3f}")
        assert coop["peer_hits"] > 0, f"n{num_nodes}"


def test_coop_per_read_cost_falls_with_node_count(suite):
    """Scaling: at a fixed ``ranks_per_node``, the cooperative tier's
    per-read shard cost keeps *falling* as nodes are added (roughly one
    fetch per tree node cluster-wide), while the node-local tier's stays
    flat — that widening gap is the tier's reason to exist."""
    series = [suite.points[f"n{n}:coop"]["server_rpcs_per_read"]
              for n in suite.settings.node_counts]
    for smaller, larger in zip(series, series[1:]):
        assert larger < smaller, series


def test_disabled_tier_has_zero_footprint(suite):
    """Zero behaviour change when ``cooperative_cache`` is off: no peer
    counter moves."""
    for num_nodes in suite.settings.node_counts:
        point = suite.points[f"n{num_nodes}:shared"]
        for column in ("probe_rpcs", "peer_hits", "peer_rejections",
                       "probe_misses", "read_throughs", "coalesced_fetches"):
            assert point[column] == 0, f"n{num_nodes}:{column}"


def test_contended_point_coalesces_in_flight_fetches(suite):
    """With a zero stagger every co-located client misses the same keys in
    the same instant; fetch coalescing must fold the simultaneous missers
    onto in-flight fetches instead of issuing duplicates."""
    point = suite.points["contended:coop"]
    assert point["coalesced_fetches"] > 0
    assert point["peer_hits"] + point["probe_misses"] > 0


def test_peer_accounting_is_conserved(suite):
    """Every lookup the peer services served landed on exactly one client
    as an admitted hit or a watermark rejection (the point runner raises
    on violation; this pins the counters into the artifact contract)."""
    for key, point in suite.points.items():
        if point["mode"] != "coop":
            continue
        assert point["coop_stats"]["served_hits"] \
            == point["peer_hits"] + point["peer_rejections"], key
        assert point["probe_rpcs"] > 0 or point["nodes"] == 1, key


def test_artifact_written_with_populated_columns(suite):
    artifact = json.loads(suite.path.read_text())
    assert artifact["suite"] == "coopcache"
    assert artifact["rows"]
    assert {row["mode"] for row in artifact["rows"]} == {"shared", "coop"}
    points = {row["point"] for row in artifact["rows"]}
    assert "contended:coop" in points
    for row in artifact["rows"]:
        assert row["logical_reads"] > 0
        assert row["server_read_rpcs"] > 0
        assert row["wall_clock_s"] > 0
        assert "server_rpcs_per_read" in row and "peer_hit_rate" in row
    reductions = artifact["server_rpc_reduction_vs_shared"]
    assert reductions
    assert any(entry["reduction"] > 1.0 for entry in reductions.values()
               if entry["num_nodes"] >= 2)
