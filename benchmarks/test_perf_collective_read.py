"""PERF — collective-read microbenchmarks (aggregated metadata resolution).

Runs the collective scan workload through the per-rank independent baseline
and aggregated resolution at several rank counts and resolver factors with
one shared harness, asserts the acceptance shape (metadata control RPCs per
logical collective read reduced by ~the resolver factor ``N/R`` versus the
per-rank baseline, non-resolver ranks at exactly zero, byte-identical data
in every mode, a cheap post-collective independent read), and records every
row — metadata RPCs, ``latest`` RPCs, exchange traffic, simulated and
wall-clock seconds — into ``BENCH_collective_read.json`` at the repository
root so future PRs can track the perf trajectory.

The points, columns and settings are the ``collective_read`` entry of
``repro.bench.suites.SUITES``; ``benchmarks/README.md`` says how to run it
at either size.
"""

import json

import pytest

from benchmarks.common import REPO_ROOT
from repro.bench.collective import scan_workload
from repro.bench.metrics import reduction
from repro.bench.suites import run_suite
from repro.mpiio.adio.collective import aggregator_ranks

#: acceptance slack: measured reduction vs the ideal resolver factor N/R
#: (the union walk can beat the ideal — resolver stripes dedup shared
#: extents and hints elide whole ``latest`` rounds — so the slack only
#: guards against harmless bookkeeping shifts below it)
MIN_FRACTION_OF_IDEAL = 0.8


@pytest.fixture(scope="module")
def suite():
    """Run every point; emit the JSON artifact."""
    return run_suite("collective_read", out_dir=REPO_ROOT)


def test_all_modes_read_identical_bytes(suite):
    """The conformance core, repeated at benchmark scale: every mode of one
    rank count returns byte-identical scan data."""
    for num_ranks in suite.settings.rank_counts:
        digests = {key: point["read_digest"]
                   for key, point in suite.points.items()
                   if key.startswith(f"N{num_ranks}:")}
        reference = digests[f"N{num_ranks}:independent"]
        workload = scan_workload(suite.settings, num_ranks)
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
    """The acceptance criterion: reduction >~ N/R at every collective point."""
    points = suite.points
    for key, point in points.items():
        if not point["resolvers"]:
            continue
        baseline = points[f"N{point['ranks']}:independent"]
        ratio = reduction(baseline, point, "metadata_rpcs_per_read")
        ideal = point["ranks"] / point["resolvers"]
        assert ratio >= MIN_FRACTION_OF_IDEAL * ideal, (
            f"{key}: only {ratio:.2f}x fewer metadata RPCs "
            f"per read (resolver factor {ideal:.2f})")


def test_one_latest_rpc_per_cold_collective_at_most(suite):
    """The version pin concentrates ``latest`` on the lead resolver: at most
    one round-trip per collective round (and zero once hints are planted),
    against one per rank per round for the baseline."""
    for key, point in suite.points.items():
        if point["resolvers"]:
            assert point["latest_rpcs"] <= point["rounds"], key
        else:
            assert point["latest_rpcs"] == point["ranks"] * point["rounds"], key


def test_exchange_traffic_is_reported_for_collective_modes(suite):
    """The aggregation trade — MPI exchange instead of control RPCs — must
    be visible in the artifact, not hidden."""
    for key, point in suite.points.items():
        if point["resolvers"]:
            assert point["exchange_bytes"] > 0, key
        else:
            assert point["exchange_bytes"] == 0, key


def test_zero_extents_travel_as_hole_descriptors(suite):
    """Zero-extent elision: the dump is sparse (``hole_every``), so the
    collective modes must ship a visible volume of never-written bytes as
    16-byte descriptors instead of literal zeros — the ``exchange_bytes``
    drop recorded per row."""
    assert suite.settings.hole_every > 0, \
        "the sweep must exercise a sparse dump"
    for key, point in suite.points.items():
        if point["resolvers"]:
            assert point["hole_bytes_elided"] > 0, key
        else:
            assert point["hole_bytes_elided"] == 0, key


def test_the_post_collective_read_needs_no_latest_and_a_short_walk(suite):
    """After the collective rounds, one independent re-read per rank asks
    for no ``latest`` in the collective modes (the refreshed hint) — the
    baseline still pays one per rank — and its tree walk, each rank's own
    now that the scatter carries no plan, is recorded and costs no more
    than the independent mode's collective-phase walks."""
    for key, point in suite.points.items():
        if point["resolvers"]:
            baseline = suite.points[f"N{point['ranks']}:independent"]
            assert point["post_latest_rpcs"] == 0, key
            assert 0 < point["post_metadata_rpcs"] \
                <= baseline["metadata_rpcs"], key
        else:
            assert point["post_latest_rpcs"] == point["ranks"], key


def test_non_resolver_ranks_touch_the_control_plane_zero_times(suite):
    """The criterion's per-rank half: outside the resolver set, every rank's
    collective-phase metadata and ``latest`` counters are exactly zero."""
    for key, point in suite.points.items():
        if not point["resolvers"]:
            continue
        owners = set(aggregator_ranks(point["ranks"], point["resolvers"]))
        for rank, (metadata, latest) in point["per_rank_rpcs"].items():
            if rank not in owners:
                assert metadata == 0, f"{key}: rank {rank} walked the tree"
                assert latest == 0, f"{key}: rank {rank} asked for latest"
        assert point["metadata_rpcs"] > 0, key


def test_artifact_written_with_populated_columns(suite):
    artifact = json.loads(suite.path.read_text())
    assert artifact["suite"] == "collective-read"
    assert artifact["rows"]
    modes = {row["mode"] for row in artifact["rows"]}
    assert "independent" in modes
    assert any(mode.startswith("collective-r") for mode in modes)
    for row in artifact["rows"]:
        assert row["logical_reads"] > 0
        assert row["metadata_rpcs"] > 0
        assert row["wall_clock_s"] > 0
        assert "metadata_rpcs_per_read" in row and "sim_read_s" in row
    reductions = artifact["metadata_rpc_reduction_vs_independent"]
    assert reductions
    for entry in reductions.values():
        assert entry["reduction"] >= MIN_FRACTION_OF_IDEAL * entry["ideal"]
