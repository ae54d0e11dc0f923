"""PERF — simulator-core benchmark (both network models).

Runs the fine-grained interleaved collective checkpoint (the workload the
growth seed spent ~28 s of host time on) under the bottleneck and the queued
network model, plus a pure scheduler-churn microbenchmark and queued-model
scale points up to the 4096-rank smoke shape.  Results — wall-clock seconds,
processed events, events/sec, cross-model read digests and the speedup
against the seed reference — land in ``BENCH_simcore.json`` at the
repository root.

The seed comparison uses a pinned measurement of commit ``0473493`` (taken
on the same host/python via a git worktree; see
``repro.bench.simcore.SEED_REFERENCE`` for provenance).  Set
``REPRO_BENCH_SEED_SRC`` to the ``src`` directory of a seed checkout to
re-measure it live instead — the acceptance assertion applies whenever the
headline point matches the reference workload (i.e. in full mode).

The points and settings are the ``simcore`` entry of
``repro.bench.suites.SUITES``; ``benchmarks/README.md`` says how to run it
at either size (smoke mode records but does not gate the wall-clock
criteria — it runs a different shape).
"""

import json
import os
import subprocess
import sys

import pytest

from benchmarks.common import REPO_ROOT
from repro.bench.simcore import SEED_REFERENCE, run_collective_io_point
from repro.bench.suites import run_suite
from repro.cluster.config import ClusterConfig

ARTIFACT = REPO_ROOT / "BENCH_simcore.json"

#: acceptance floor on the headline speedup vs the seed engine
MIN_SPEEDUP_VS_SEED = 5.0

#: tracing-disabled headline wall-clock of the PR that introduced the
#: observability subsystem's *predecessor* artifact (fallback when no
#: committed artifact is readable at collection time)
PRIOR_HEADLINE_WALL_S = 1.558

#: the tracing-disabled headline may cost at most this factor over the
#: pre-observability baseline *measured on the same host* (set
#: ``REPRO_BENCH_BASELINE_SRC`` to the ``src`` dir of a pre-observability
#: checkout to take that measurement live; min-of-retries damps noise)
TRACING_DISABLED_BUDGET = 1.02

#: the committed artifact's headline was taken on a different host; the
#: same code drifts 10-15% across this repo's hosts (measured: the
#: pre-observability commit's 1.558 s headline re-runs at 1.6-2.0 s
#: elsewhere), so without a live baseline the pinned number can only gate
#: gross regressions, not the 2% budget
HOST_DRIFT_ALLOWANCE = 1.35

#: runs the pre-observability headline point in a subprocess against
#: ``REPRO_BENCH_BASELINE_SRC`` (mirrors ``REPRO_BENCH_SEED_SRC``)
_BASELINE_SCRIPT = """
import json, sys, time
from repro.bench.simcore import run_collective_io_point
from repro.cluster.config import ClusterConfig

ranks, blocks, block_size, rounds, aggs, providers, metas, chunk, seed = \\
    (int(arg) for arg in sys.argv[1:])
walls = []
for _ in range(2):
    row = run_collective_io_point(
        ranks, blocks, block_size, rounds, aggs, config=ClusterConfig(),
        num_providers=providers, num_metadata_providers=metas,
        chunk_size=chunk, seed=seed)
    walls.append(row["wall_clock_s"])
print(json.dumps({"wall_clock_s": min(walls)}))
"""


def _live_baseline_wall(settings):
    """Same-host pre-observability headline, or None when unset."""
    baseline_src = os.environ.get("REPRO_BENCH_BASELINE_SRC")
    if not baseline_src:
        return None
    env = dict(os.environ, PYTHONPATH=baseline_src)
    result = subprocess.run(
        [sys.executable, "-c", _BASELINE_SCRIPT,
         str(settings.num_ranks), str(settings.blocks_per_rank),
         str(settings.block_size), str(settings.read_rounds),
         str(settings.num_aggregators), str(settings.num_providers),
         str(settings.num_metadata_providers), str(settings.chunk_size),
         str(settings.seed)],
        env=env, capture_output=True, text=True, check=True)
    return float(json.loads(
        result.stdout.strip().splitlines()[-1])["wall_clock_s"])


def _prior_headline_wall() -> float:
    """Headline wall-clock of the committed (pre-run) artifact.

    Read at import time — the suite fixture overwrites the artifact."""
    try:
        artifact = json.loads(ARTIFACT.read_text())
        if artifact.get("smoke"):
            return PRIOR_HEADLINE_WALL_S
        for row in artifact["rows"]:
            if row.get("label") == "headline":
                return float(row["wall_clock_s"])
    except (OSError, KeyError, ValueError):
        pass
    return PRIOR_HEADLINE_WALL_S


_PRIOR_HEADLINE_WALL = _prior_headline_wall()


@pytest.fixture(scope="module")
def suite():
    """Run every point on identical settings; emit the JSON artifact."""
    return run_suite("simcore", out_dir=REPO_ROOT)


def test_headline_beats_seed_by_5x(suite):
    """The acceptance criterion: >=5x wall-clock on the 64-client collective
    sweep vs the seed scheduler.  Only enforceable when the headline point
    matches the reference workload — smoke mode records but does not gate."""
    speedup = suite.artifact["speedup_vs_seed"]
    if suite.smoke:
        assert speedup is None or speedup > 0
        return
    assert speedup is not None
    assert speedup >= MIN_SPEEDUP_VS_SEED, (
        f"headline point only {speedup:.2f}x faster than the seed reference "
        f"({suite.artifact['seed_reference']['wall_clock_s_used']} s)")


def test_smoke_point_completes(suite):
    """The largest queued-model point ran to completion with sane counters."""
    scale_rows = [row for label, row in suite.points.items()
                  if row["kind"] == "collective_io"
                  and label.startswith("scale-")]
    largest = max(scale_rows, key=lambda row: row["num_ranks"])
    assert largest["num_ranks"] == suite.settings.smoke_point[0]
    assert largest["network_model"] == "queued"
    assert largest["processed_events"] > largest["num_ranks"]
    assert largest["wall_clock_s"] > 0
    assert largest["events_per_sec"] > 0


def test_network_models_move_identical_bytes(suite):
    """Same workload under bottleneck and queued leaves identical file
    contents — the cost model changes timing, never data."""
    assert suite.artifact["digests_identical_across_network_models"]
    assert suite.points["headline"]["read_digest"] \
        == suite.points["headline-queued"]["read_digest"]
    # ...and the queued run simulates a different (not smaller) timeline
    assert suite.points["headline-queued"]["sim_elapsed_s"] > 0


def test_tracing_perturbs_nothing_and_overhead_recorded(suite):
    """The traced headline replays the identical simulation — same bytes,
    same timeline, same event count, same metrics snapshot — and its
    wall-clock overhead lands in the artifact."""
    assert suite.artifact["tracing_invariant"], (
        "tracing changed the simulation outcome (digest, timeline, event "
        "count or metrics differ between headline and headline-traced)")
    assert suite.points["headline"]["tracing"] is False
    assert suite.points["headline-traced"]["tracing"] is True
    assert suite.artifact["tracing_overhead_pct"] is not None
    artifact = json.loads(suite.path.read_text())
    assert artifact["tracing_overhead_pct"] \
        == suite.artifact["tracing_overhead_pct"]


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


def test_tracing_disabled_wall_clock_within_budget(suite):
    """Overhead guard: the tracing-disabled headline must stay within 2%
    of the pre-observability baseline.  The strict budget needs a
    same-host baseline — set ``REPRO_BENCH_BASELINE_SRC`` to the ``src``
    dir of a pre-observability checkout to measure it live; without one
    the pinned cross-host number gates only gross regressions (see
    ``HOST_DRIFT_ALLOWANCE``).  Wall-clock is noisy, so a miss
    re-measures (min of retries) before failing; smoke mode runs a
    different shape and records without gating."""
    headline = suite.points["headline"]
    assert headline["wall_clock_s"] > 0
    if suite.smoke:
        return
    settings = suite.settings
    live = _live_baseline_wall(settings)
    if live is not None:
        budget = live * TRACING_DISABLED_BUDGET
        baseline_note = f"live same-host baseline {live:.3f}s"
    else:
        budget = (_PRIOR_HEADLINE_WALL * TRACING_DISABLED_BUDGET
                  * HOST_DRIFT_ALLOWANCE)
        baseline_note = (
            f"pinned cross-host baseline {_PRIOR_HEADLINE_WALL:.3f}s "
            f"x{HOST_DRIFT_ALLOWANCE} drift allowance")
    best = headline["wall_clock_s"]
    for _attempt in range(2):
        if best <= budget:
            break
        retry = run_collective_io_point(
            settings.num_ranks, settings.blocks_per_rank,
            settings.block_size, settings.read_rounds,
            settings.num_aggregators, config=ClusterConfig(),
            num_providers=settings.num_providers,
            num_metadata_providers=settings.num_metadata_providers,
            chunk_size=settings.chunk_size, seed=settings.seed)
        best = min(best, retry["wall_clock_s"])
    assert best <= budget, (
        f"tracing-disabled headline {best:.3f}s exceeds "
        f"{TRACING_DISABLED_BUDGET:.0%} of {baseline_note}")


def test_artifact_written_with_populated_columns(suite):
    artifact = json.loads(suite.path.read_text())
    assert artifact["suite"] == "simcore"
    assert artifact["seed_reference"]["commit"] == SEED_REFERENCE["commit"]
    labels = {row["label"] for row in artifact["rows"]}
    assert {"headline", "headline-queued", "churn-heapq"} <= labels
    for row in artifact["rows"]:
        assert row["wall_clock_s"] >= 0
        assert row["processed_events"] > 0
        assert row["events_per_sec"] >= 0
