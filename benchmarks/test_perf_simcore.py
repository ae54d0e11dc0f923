"""PERF — simulator-core benchmark (both network models).

Runs the fine-grained interleaved collective checkpoint under the
bottleneck and the queued network model, plus queued-model scale points up
to the 4096-rank smoke shape.  Results — simulated seconds, processed
events, cross-model read digests and the tracing invariant — land in
``BENCH_simcore.json`` at the repository root.  The tests assert the
simulated invariants; host time is ``perfbench``'s to judge.

The points and settings are the ``simcore`` entry of
``repro.bench.suites.SUITES``; ``benchmarks/README.md`` says how to run it
at either size.
"""

import json

import pytest

from benchmarks.common import REPO_ROOT
from repro.bench.suites import run_suite


@pytest.fixture(scope="module")
def suite():
    """Run every point on identical settings; emit the JSON artifact."""
    return run_suite("simcore", out_dir=REPO_ROOT)


def test_smoke_point_completes(suite):
    """The largest queued-model point ran to completion with sane counters."""
    scale_rows = [row for label, row in suite.points.items()
                  if row["kind"] == "collective_io"
                  and label.startswith("scale-")]
    largest = max(scale_rows, key=lambda row: row["num_ranks"])
    assert largest["num_ranks"] == suite.settings.smoke_point[0]
    assert largest["network_model"] == "queued"
    assert largest["processed_events"] > largest["num_ranks"]


def test_network_models_move_identical_bytes(suite):
    """Same workload under bottleneck and queued leaves identical file
    contents — the cost model changes timing, never data."""
    assert suite.artifact["digests_identical_across_network_models"]
    assert suite.points["headline"]["read_digest"] \
        == suite.points["headline-queued"]["read_digest"]
    # ...and the queued run simulates a different (not smaller) timeline
    assert suite.points["headline-queued"]["sim_elapsed_s"] > 0


def test_tracing_perturbs_nothing(suite):
    """The traced headline replays the identical simulation — same bytes,
    same timeline, same event count, same metrics snapshot.  Its host-time
    overhead is ``perfbench``'s ``obs.tracing_overhead_pct``."""
    assert suite.artifact["tracing_invariant"], (
        "tracing changed the simulation outcome (digest, timeline, event "
        "count or metrics differ between headline and headline-traced)")
    assert suite.points["headline"]["tracing"] is False
    assert suite.points["headline-traced"]["tracing"] is True


def test_metrics_snapshot_embedded_in_rows(suite):
    """Every collective I/O row carries the unified registry snapshot with
    its partition identities already asserted at collection time."""
    for row in suite.points.values():
        if row["kind"] != "collective_io":
            continue
        metrics = row["metrics"]
        assert metrics["metadata.cache.lookups"] == (
            metrics["metadata.cache.hits"]
            + metrics["cache.shared.client_hits"]
            + metrics["metadata.client.fetched_lookups"])
        assert metrics["client.bytes_written"] > 0
        assert metrics["net.bytes"] > 0


def test_traced_row_carries_exact_critical_path_breakdown(suite):
    """The traced headline embeds the per-operation critical-path report,
    and the six layers sum exactly to each operation's end-to-end time."""
    import math

    report = suite.points["headline-traced"]["critpath"]
    assert report["layers"] == ["client_compute", "deferred_complete_overlap",
                                "rpc_queueing", "link_transfer",
                                "shard_service", "coalesce_park"]
    ops = report["operations"]
    assert ops["file.write_at_all"]["count"] == suite.settings.num_ranks
    for name, entry in ops.items():
        assert math.isclose(entry["attributed_s"], entry["end_to_end_s"],
                            rel_tol=1e-9, abs_tol=1e-12), name
        assert math.isclose(sum(entry["layers"].values()),
                            entry["attributed_s"],
                            rel_tol=1e-9, abs_tol=1e-12), name
    # untraced rows carry no critpath key at all
    assert "critpath" not in suite.points["headline"]


def test_latency_digest_columns_in_rows_and_metrics(suite):
    """Collective I/O rows promote the RPC latency digest to flat columns
    and embed the full digest catalog in the metrics snapshot."""
    for row in suite.points.values():
        if row["kind"] != "collective_io":
            continue
        assert row["rpc_latency_count"] > 0, row["label"]
        assert 0 < row["rpc_latency_p50"] <= row["rpc_latency_p95"] \
            <= row["rpc_latency_p99"], row["label"]
        assert row["rpc_latency_max"] > 0
        metrics = row["metrics"]
        assert metrics["rpc.latency.all.count"] == row["rpc_latency_count"]
        assert any(key.startswith("op.latency.file.write_at_all")
                   for key in metrics), row["label"]


def test_artifact_written_with_populated_columns(suite):
    artifact = json.loads(suite.path.read_text())
    assert artifact["suite"] == "simcore"
    labels = {row["label"] for row in artifact["rows"]}
    assert {"headline", "headline-queued"} <= labels
    for row in artifact["rows"]:
        assert row["processed_events"] > 0
