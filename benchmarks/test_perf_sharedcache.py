"""PERF — node-local shared metadata cache microbenchmarks.

Runs the independent-scan workload with several clients packed per compute
node under every cache configuration (private baseline, shared tier, and
the shared tier alone under small capacities), asserts the acceptance
shape — metadata control RPCs per logical read strictly below the private
baseline and approaching ``1 / ranks_per_node`` on identical extents, a
bounded pool's eviction rule beating plain LRU at equal capacity,
byte-identical data everywhere, and the exact lookup partition — and
records every row into ``BENCH_sharedcache.json`` at the repository root so
future PRs can track the perf trajectory.

The points, columns and settings are the ``sharedcache`` entry of
``repro.bench.suites.SUITES``; ``benchmarks/README.md`` says how to run it
at either size.
"""

import json

import pytest

from benchmarks.common import REPO_ROOT, expected_scan_bytes
from repro.bench.metrics import reduction
from repro.bench.scan import run_scan_point, scan_workload
from repro.bench.suites import SUITES, run_suite
from repro.blobseer.metadata.sharedcache import NodeCacheService
from repro.cluster import ClusterConfig

#: acceptance slack: measured reduction vs the ideal ``ranks_per_node``
#: factor (staggered co-tenants can land exactly on the ideal; the slack
#: only guards against harmless bookkeeping shifts below it)
MIN_FRACTION_OF_IDEAL = 0.8


@pytest.fixture(scope="module")
def suite():
    """Run every point; emit the JSON artifact."""
    return run_suite("sharedcache", out_dir=REPO_ROOT)


def test_all_modes_read_identical_bytes(suite):
    """Every cache configuration of one pattern returns byte-identical
    scan data — sharing and eviction must never change results."""
    for pattern in ("identical", "streaming"):
        expected = expected_scan_bytes(scan_workload(
            suite.settings, suite.settings.num_clients, pattern))
        for key, point in suite.points.items():
            if point["pattern"] == pattern:
                assert point["read_digest"] == expected, key


def test_shared_tier_beats_the_private_baseline(suite):
    """The acceptance criterion: with multiple ranks per node, metadata
    RPCs per logical read drop strictly below the private baseline and
    approach ``1 / ranks_per_node`` on identical extents."""
    ranks_per_node = suite.settings.ranks_per_node
    baseline = suite.points["identical:private"]
    shared = suite.points["identical:shared"]
    assert shared["rpcs_per_read"] < baseline["rpcs_per_read"]
    ratio = reduction(baseline, shared, "rpcs_per_read")
    assert ratio >= MIN_FRACTION_OF_IDEAL * ranks_per_node, (
        f"only {ratio:.2f}x fewer metadata RPCs per read "
        f"(placement factor {ranks_per_node})")


def test_mean_read_latency_sees_the_shared_tier(suite):
    """``sim_read_s`` is mostly the clients' start stagger; the mean
    latency of one scan call is where the shared tier shows."""
    baseline = suite.points["identical:private"]
    shared = suite.points["identical:shared"]
    assert shared["sim_read_mean_ms"] < baseline["sim_read_mean_ms"]
    for label, point in suite.points.items():
        assert 0 < point["sim_read_mean_ms"] < 1e3 * point["sim_read_s"], \
            label


def test_keeping_the_top_levels_beats_plain_lru(suite, monkeypatch):
    """The row that justifies the pool's one eviction rule: on the
    streaming pattern under a bounded shared tier, the rule (keep the top
    tree levels, shed the deepest entry first) makes strictly fewer shard
    RPCs than the same scan whose full pool sheds its least recently used
    entry, and reads the same bytes."""
    plan = dict(SUITES["sharedcache"].plan(suite.settings))
    monkeypatch.setattr(NodeCacheService, "_victim",
                        lambda service: next(iter(service._entries)))
    for capacity in suite.settings.capacity_sweep:
        label = f"streaming@{capacity}"
        kept = suite.points[label]
        lru, lru_extras = run_scan_point(suite.settings, ClusterConfig(),
                                         **plan[label])
        assert lru_extras["read_digest"] == kept["read_digest"], label
        assert kept["metadata_rpcs"] < lru["metadata_rpcs"], label
        assert kept["shared_hits"] > lru["shared_hits"], label
        assert kept["sim_read_mean_ms"] < lru["sim_read_mean_ms"], label


def test_lookup_partition_is_exact(suite):
    """The partition is checked against *independently counted* tier
    totals (the caches' own hit+miss counters), not against the sum the
    partition is built from: every lookup the private tier served or
    missed is accounted, and the shared services saw exactly the lookups
    that fell through the private tier."""
    for label, point in suite.points.items():
        if point["mode"].startswith("private"):
            assert point["private_tier_lookups"] == point["lookups"], label
            assert point["shared_tier_lookups"] == 0, label
            assert point["shared_hits"] == 0, label
        elif point["private_hits"] or "-only" not in point["mode"]:
            assert point["private_tier_lookups"] == point["lookups"], label
            assert point["shared_tier_lookups"] \
                == point["shared_hits"] + point["fetched_lookups"], label
        else:
            # bounded-pool modes run without a private tier: the shared
            # services saw every lookup
            assert point["private_tier_lookups"] == 0, label
            assert point["shared_tier_lookups"] == point["lookups"], label
        assert point["fetched_lookups"] > 0, label


def test_co_located_first_toucher_pays_most_fetches(suite):
    """Placement sanity: in the shared mode the node's stagger-first client
    fetches; later co-tenants ride the shared tier (strictly fewer RPCs
    than the baseline's per-client spend)."""
    density = suite.settings.ranks_per_node
    baseline = suite.points["identical:private"]["per_client_rpcs"]
    shared = suite.points["identical:shared"]["per_client_rpcs"]
    for index in range(suite.settings.num_clients):
        if index % density:
            # a co-tenant that never starts first on its node
            assert shared[index] < baseline[index], index


def test_artifact_written_with_populated_columns(suite):
    artifact = json.loads(suite.path.read_text())
    assert artifact["suite"] == "sharedcache"
    assert artifact["rows"]
    modes = {row["mode"] for row in artifact["rows"]}
    assert {"private", "shared"} <= modes
    patterns = {row["pattern"] for row in artifact["rows"]}
    assert patterns == {"identical", "streaming"}
    for row in artifact["rows"]:
        assert row["logical_reads"] > 0
        assert row["metadata_rpcs"] > 0
        assert row["wall_clock_s"] > 0
        assert "rpcs_per_read" in row and "shared_hit_rate" in row
        assert row["sim_read_mean_ms"] > 0
    reductions = artifact["metadata_rpc_reduction_vs_private"]
    assert reductions
    assert any(entry["reduction"] >= MIN_FRACTION_OF_IDEAL * entry["ideal"]
               for entry in reductions.values())
