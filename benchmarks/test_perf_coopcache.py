"""PERF — cooperative cross-node metadata cache microbenchmarks.

Runs the identical-extent shared scan at a fixed ``ranks_per_node`` while
the compute-node count grows, with the node-local shared tier alone
(``shared``, the ``1/ranks_per_node`` ideal) and with the cooperative
peer tier on top (``coop``).  Asserts the acceptance shape — server-side
metadata shard RPCs per logical read strictly below the node-local ideal
whenever there is more than one node, and still *falling* as nodes are
added at a fixed ``ranks_per_node`` — plus byte-identical scan data
everywhere, exact zero-footprint when the tier is disabled (identical
counters under both network models, every peer counter zero), and live
in-flight fetch coalescing on the contended zero-stagger point.  Records
every row into ``BENCH_coopcache.json`` at the repository root so future
PRs can track the perf trajectory.

Set ``REPRO_BENCH_SMOKE=1`` to run the same shapes on a fraction of the
work (what CI does on every push); a smoke run writes
``BENCH_coopcache.smoke.json`` and leaves the committed artifact alone.
"""

import json
import os
import platform
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.common import artifact_target, write_artifact
from repro.bench.coopcache import (
    CoopCacheSettings,
    run_coop_cache_suite,
    suite_rows,
)
from repro.bench.metrics import coop_rpc_reduction
from repro.bench.reporting import format_table

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_coopcache.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: both cost models every suite runs under; with the tier *disabled* the
#: cache counters must be bit-identical across them (zero behaviour change)
NETWORK_MODELS = ("bottleneck", "queued")


def bench_settings(network_model: str = "bottleneck") -> CoopCacheSettings:
    settings = CoopCacheSettings()
    settings = settings.scaled_down() if SMOKE else settings
    return replace(settings, config=replace(settings.config,
                                            network_model=network_model))


@pytest.fixture(scope="module")
def suite():
    """Run every point under both network models; emit the JSON artifact."""
    settings = bench_settings()
    results = {model: run_coop_cache_suite(bench_settings(model))
               for model in NETWORK_MODELS}
    rows = [row for model in NETWORK_MODELS
            for row in suite_rows(results[model])]

    reductions = {}
    for model in NETWORK_MODELS:
        for num_nodes in settings.node_counts:
            baseline = results[model][f"n{num_nodes}:shared"].sample
            coop = results[model][f"n{num_nodes}:coop"].sample
            reductions[f"{model}:n{num_nodes}"] = {
                "reduction": coop_rpc_reduction(baseline, coop),
                "num_nodes": num_nodes,
            }

    artifact = {
        "suite": "coopcache",
        "smoke": SMOKE,
        "python": platform.python_version(),
        "settings": {
            "node_counts": list(settings.node_counts),
            "ranks_per_node": settings.ranks_per_node,
            "rounds": settings.rounds,
            "blocks_per_round": settings.blocks_per_round,
            "block_size": settings.block_size,
            "num_providers": settings.num_providers,
            "num_metadata_providers": settings.num_metadata_providers,
            "chunk_size": settings.chunk_size,
            "provider_fraction": settings.provider_fraction,
        },
        "network_models": list(NETWORK_MODELS),
        "server_rpc_reduction_vs_shared": reductions,
        "rows": rows,
    }
    write_artifact(ARTIFACT, artifact)
    print()
    print(format_table(rows, title="cooperative-cache microbenchmark"))
    return results


def test_all_points_read_identical_bytes(suite):
    """Every mode, node count and network model returns byte-identical
    scan data — the cooperative tier and fetch coalescing must never
    change results."""
    settings = bench_settings()
    for model, results in suite.items():
        for key, result in results.items():
            workload = settings.workload(result.sample.num_clients)
            expected = b"".join(
                workload.expected_pieces(client, round_index)
                for client in range(workload.num_clients)
                for round_index in range(workload.rounds))
            assert result.read_digest == expected, f"{model}:{key}"


def test_coop_tier_beats_the_node_local_ideal(suite):
    """The acceptance criterion: with more than one compute node, the
    cooperative tier pushes authoritative shard RPCs per logical read
    strictly below the node-local shared tier (the ``1/ranks_per_node``
    ideal) — under both network models."""
    settings = bench_settings()
    multi = [n for n in settings.node_counts if n >= 2]
    assert multi, "suite must sweep at least one multi-node point"
    for model, results in suite.items():
        for num_nodes in multi:
            baseline = results[f"n{num_nodes}:shared"].sample
            coop = results[f"n{num_nodes}:coop"].sample
            assert coop.server_rpcs_per_read \
                < baseline.server_rpcs_per_read, (
                    f"{model}:n{num_nodes}: coop "
                    f"{coop.server_rpcs_per_read:.3f} vs node-local ideal "
                    f"{baseline.server_rpcs_per_read:.3f}")
            assert coop.peer_hits > 0, f"{model}:n{num_nodes}"


def test_coop_per_read_cost_falls_with_node_count(suite):
    """Scaling: at a fixed ``ranks_per_node``, the cooperative tier's
    per-read shard cost keeps *falling* as nodes are added (roughly one
    fetch per tree node cluster-wide), while the node-local tier's stays
    flat — that widening gap is the tier's reason to exist."""
    settings = bench_settings()
    for model, results in suite.items():
        series = [results[f"n{n}:coop"].sample.server_rpcs_per_read
                  for n in settings.node_counts]
        for smaller, larger in zip(series, series[1:]):
            assert larger < smaller, f"{model}: {series}"


def test_disabled_tier_has_zero_footprint(suite):
    """Zero behaviour change when ``cooperative_cache`` is off: no peer
    counter moves, and every cache counter is bit-identical across the
    two network cost models (the tier being off, nothing timing-sensitive
    is left in the metadata path)."""
    settings = bench_settings()
    for model, results in suite.items():
        for num_nodes in settings.node_counts:
            sample = results[f"n{num_nodes}:shared"].sample
            label = f"{model}:n{num_nodes}"
            assert sample.probe_rpcs == 0, label
            assert sample.peer_hits == 0, label
            assert sample.peer_rejections == 0, label
            assert sample.probe_misses == 0, label
            assert sample.read_throughs == 0, label
            assert sample.coalesced_fetches == 0, label
    for num_nodes in settings.node_counts:
        key = f"n{num_nodes}:shared"
        bottleneck = suite["bottleneck"][key]
        queued = suite["queued"][key]
        for column in ("server_read_rpcs", "client_metadata_rpcs",
                       "private_hits", "shared_hits", "fetched_lookups"):
            assert getattr(bottleneck.sample, column) \
                == getattr(queued.sample, column), f"{key}:{column}"
        assert bottleneck.read_digest == queued.read_digest, key


def test_contended_point_coalesces_in_flight_fetches(suite):
    """With a zero stagger every co-located client misses the same keys in
    the same instant; fetch coalescing must fold the simultaneous missers
    onto in-flight fetches instead of issuing duplicates."""
    for model, results in suite.items():
        sample = results["contended:coop"].sample
        assert sample.coalesced_fetches > 0, model
        assert sample.peer_hits + sample.probe_misses > 0, model


def test_peer_accounting_is_conserved(suite):
    """Every lookup the peer services served landed on exactly one client
    as an admitted hit or a watermark rejection (the point runner raises
    on violation; this pins the counters into the artifact contract)."""
    for model, results in suite.items():
        for key, result in results.items():
            sample = result.sample
            if sample.mode != "coop":
                continue
            assert result.coop_stats["served_hits"] \
                == sample.peer_hits + sample.peer_rejections, f"{model}:{key}"
            assert sample.probe_rpcs > 0 or sample.num_nodes == 1, \
                f"{model}:{key}"


def test_artifact_written_with_populated_columns(suite):
    artifact = json.loads(artifact_target(ARTIFACT, SMOKE).read_text())
    assert artifact["suite"] == "coopcache"
    assert artifact["rows"]
    assert {row["mode"] for row in artifact["rows"]} == {"shared", "coop"}
    assert {row["network_model"] for row in artifact["rows"]} \
        == set(NETWORK_MODELS)
    points = {row["point"] for row in artifact["rows"]}
    assert "contended:coop" in points
    for row in artifact["rows"]:
        assert row["logical_reads"] > 0
        assert row["server_read_rpcs"] > 0
        assert row["wall_clock_s"] > 0
        assert "server_rpcs_per_read" in row and "peer_hit_rate" in row
    reductions = artifact["server_rpc_reduction_vs_shared"]
    assert reductions
    for model in NETWORK_MODELS:
        assert any(entry["reduction"] > 1.0
                   for key, entry in reductions.items()
                   if key.startswith(f"{model}:") and entry["num_nodes"] >= 2)
