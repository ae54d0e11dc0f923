"""PERF — collective-read microbenchmarks (aggregated metadata resolution).

Runs the collective scan workload through the per-rank independent baseline
and aggregated resolution at several rank counts and resolver factors with
one shared harness, asserts the acceptance shape (metadata control RPCs per
logical collective read reduced by ~the resolver factor ``N/R`` versus the
per-rank baseline, non-resolver ranks at exactly zero, byte-identical data
in every mode, warm caches after the plan broadcast), and records every row
— metadata RPCs, ``latest`` RPCs, exchange traffic, simulated and
wall-clock seconds — into ``BENCH_collective_read.json`` at the repository
root so future PRs can track the perf trajectory.

Set ``REPRO_BENCH_SMOKE=1`` to run the same shapes on a fraction of the
work (what CI does on every push); a smoke run writes
``BENCH_collective_read.smoke.json`` and leaves the committed artifact alone.
"""

import json
import os
import platform
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.common import artifact_target, write_artifact
from repro.bench.collective_read import (
    CollectiveReadSettings,
    run_collective_read_suite,
    suite_rows,
)
from repro.bench.metrics import read_rpc_reduction
from repro.bench.reporting import format_table
from repro.mpiio.adio.collective import aggregator_ranks

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_collective_read.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: acceptance slack: measured reduction vs the ideal resolver factor N/R
#: (the union walk can beat the ideal — resolver stripes dedup shared
#: extents and hints elide whole ``latest`` rounds — so the slack only
#: guards against harmless bookkeeping shifts below it)
MIN_FRACTION_OF_IDEAL = 0.8


#: both cost models every suite runs under (the acceptance rows are
#: re-reported under "queued"; workload bytes must not depend on the model)
NETWORK_MODELS = ("bottleneck", "queued")


def bench_settings(network_model: str = "bottleneck") -> CollectiveReadSettings:
    settings = CollectiveReadSettings()
    settings = settings.scaled_down() if SMOKE else settings
    return replace(settings, config=replace(settings.config,
                                            network_model=network_model))


@pytest.fixture(scope="module")
def suite():
    """Run every point under both network models; emit the JSON artifact."""
    settings = bench_settings()
    results = {model: run_collective_read_suite(bench_settings(model))
               for model in NETWORK_MODELS}
    rows = [row for model in NETWORK_MODELS
            for row in suite_rows(results[model])]

    reductions = {}
    for model in NETWORK_MODELS:
        for key, result in results[model].items():
            sample = result.sample
            if sample.num_resolvers:
                baseline = results[model][f"N{sample.num_ranks}:independent"]
                reductions[f"{model}:{key}"] = {
                    "reduction": read_rpc_reduction(baseline.sample, sample),
                    "ideal": sample.num_ranks / sample.num_resolvers,
                }

    artifact = {
        "suite": "collective-read",
        "smoke": SMOKE,
        "python": platform.python_version(),
        "settings": {
            "rank_counts": list(settings.rank_counts),
            "resolver_counts": list(settings.resolver_counts),
            "rounds": settings.rounds,
            "blocks_per_rank": settings.blocks_per_rank,
            "block_size": settings.block_size,
            "halo_blocks": settings.halo_blocks,
            "hole_every": settings.hole_every,
            "num_providers": settings.num_providers,
            "num_metadata_providers": settings.num_metadata_providers,
            "chunk_size": settings.chunk_size,
        },
        "network_models": list(NETWORK_MODELS),
        "metadata_rpc_reduction_vs_independent": reductions,
        "rows": rows,
    }
    write_artifact(ARTIFACT, artifact)
    print()
    print(format_table(rows, title="collective-read microbenchmark"))
    return results


def test_all_modes_read_identical_bytes(suite):
    """The conformance core, repeated at benchmark scale: every mode of one
    rank count returns byte-identical scan data."""
    settings = bench_settings()
    for num_ranks in settings.rank_counts:
        digests = {f"{model}:{key}": result.read_digest
                   for model, results in suite.items()
                   for key, result in results.items()
                   if key.startswith(f"N{num_ranks}:")}
        reference = digests[f"bottleneck:N{num_ranks}:independent"]
        workload = settings.workload(num_ranks)
        content = workload.expected_contents()
        expected_parts = []
        for rank in range(num_ranks):
            for round_index in range(workload.rounds):
                expected_parts.append(
                    workload.expected_pieces(rank, round_index))
            # the post-phase probe re-reads the rank's first round-0 range
            first_offset, first_size = workload.read_pairs(rank, 0)[0]
            expected_parts.append(
                content[first_offset:first_offset + first_size])
        expected = b"".join(expected_parts)
        assert reference == expected, f"N{num_ranks}: baseline diverged"
        for key, digest in digests.items():
            assert digest == reference, key


def test_metadata_rpcs_drop_by_the_resolver_factor(suite):
    """The acceptance criterion: reduction >~ N/R at every collective point,
    re-reported under the queued model as well."""
    for model, results in suite.items():
        for key, result in results.items():
            sample = result.sample
            if not sample.num_resolvers:
                continue
            baseline = results[f"N{sample.num_ranks}:independent"]
            reduction = read_rpc_reduction(baseline.sample, sample)
            ideal = sample.num_ranks / sample.num_resolvers
            assert reduction >= MIN_FRACTION_OF_IDEAL * ideal, (
                f"{model}:{key}: only {reduction:.2f}x fewer metadata RPCs "
                f"per read (resolver factor {ideal:.2f})")


def test_one_latest_rpc_per_cold_collective_at_most(suite):
    """The version pin concentrates ``latest`` on the lead resolver: at most
    one round-trip per collective round (and zero once hints are planted),
    against one per rank per round for the baseline."""
    for model, results in suite.items():
        for key, result in results.items():
            sample = result.sample
            if sample.num_resolvers:
                assert sample.latest_rpcs <= sample.rounds, f"{model}:{key}"
            else:
                assert sample.latest_rpcs \
                    == sample.num_ranks * sample.rounds, f"{model}:{key}"


def test_exchange_traffic_is_reported_for_collective_modes(suite):
    """The aggregation trade — MPI exchange instead of control RPCs — must
    be visible in the artifact, not hidden."""
    for model, results in suite.items():
        for key, result in results.items():
            sample = result.sample
            if sample.num_resolvers:
                assert sample.exchange_bytes > 0, f"{model}:{key}"
                assert sample.plan_nodes_absorbed > 0, f"{model}:{key}"
            else:
                assert sample.exchange_bytes == 0, f"{model}:{key}"
                assert sample.plan_nodes_absorbed == 0, f"{model}:{key}"


def test_zero_extents_travel_as_hole_descriptors(suite):
    """Zero-extent elision: the dump is sparse (``hole_every``), so the
    collective modes must ship a visible volume of never-written bytes as
    16-byte descriptors instead of literal zeros — the ``exchange_bytes``
    drop recorded per row."""
    settings = bench_settings()
    assert settings.hole_every > 0, "the sweep must exercise a sparse dump"
    for model, results in suite.items():
        for key, result in results.items():
            sample = result.sample
            if sample.num_resolvers:
                assert sample.hole_bytes_elided > 0, f"{model}:{key}"
            else:
                assert sample.hole_bytes_elided == 0, f"{model}:{key}"


def test_plan_broadcast_makes_the_post_collective_read_free(suite):
    """After the collective rounds, one independent re-read per rank costs
    zero metadata RPCs in the collective modes (absorbed plan + refreshed
    hint) — while the baseline still pays a ``latest`` per rank."""
    for model, results in suite.items():
        for key, result in results.items():
            sample = result.sample
            if sample.num_resolvers:
                assert sample.post_metadata_rpcs == 0, f"{model}:{key}"
                assert sample.post_latest_rpcs == 0, f"{model}:{key}"
            else:
                assert sample.post_latest_rpcs \
                    == sample.num_ranks, f"{model}:{key}"


def test_non_resolver_ranks_touch_the_control_plane_zero_times(suite):
    """The criterion's per-rank half: outside the resolver set, every rank's
    collective-phase metadata and ``latest`` counters are exactly zero."""
    for model, results in suite.items():
        for key, result in results.items():
            sample = result.sample
            if not sample.num_resolvers:
                continue
            owners = set(aggregator_ranks(sample.num_ranks,
                                          sample.num_resolvers))
            for rank, (metadata, latest) in result.per_rank_rpcs.items():
                if rank not in owners:
                    assert metadata == 0, \
                        f"{model}:{key}: rank {rank} walked the tree"
                    assert latest == 0, \
                        f"{model}:{key}: rank {rank} asked for latest"
            assert sample.metadata_rpcs > 0, f"{model}:{key}"


def test_artifact_written_with_populated_columns(suite):
    artifact = json.loads(artifact_target(ARTIFACT, SMOKE).read_text())
    assert artifact["suite"] == "collective-read"
    assert artifact["rows"]
    modes = {row["mode"] for row in artifact["rows"]}
    assert "independent" in modes
    assert any(mode.startswith("collective-r") for mode in modes)
    assert {row["network_model"] for row in artifact["rows"]} \
        == set(NETWORK_MODELS)
    for row in artifact["rows"]:
        assert row["logical_reads"] > 0
        assert row["metadata_rpcs"] > 0
        assert row["wall_clock_s"] > 0
        assert "metadata_rpcs_per_read" in row and "sim_read_s" in row
    reductions = artifact["metadata_rpc_reduction_vs_independent"]
    assert reductions
    for entry in reductions.values():
        assert entry["reduction"] >= MIN_FRACTION_OF_IDEAL * entry["ideal"]
