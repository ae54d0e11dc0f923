"""Tests for the experiment definitions (tiny parameter sets).

These are correctness tests of the sweep functions — the real, larger runs
live in ``benchmarks/`` and in ``BENCH_paper.json``.
"""

import pytest

from repro.bench.experiments import (
    ExperimentSettings,
    run_abl1_striping,
    run_abl2_lock_granularity,
    run_abl3_metadata_overhead,
    run_exp1_overlap_scalability,
    run_exp1b_nonoverlapping,
    run_exp2_tile_io,
    run_exp3_speedup_table,
)
from repro.bench.producer_consumer import run_fut1_producer_consumer
from repro.cluster import ClusterConfig
from repro.errors import BenchmarkError


def tiny_settings():
    return ExperimentSettings(
        client_counts=(1, 2),
        num_storage_nodes=2,
        stripe_unit=8192,
        num_metadata_providers=1,
        regions_per_client=2,
        region_size=8192,
        overlap_fraction=0.5,
        tile_elements_x=16,
        tile_elements_y=16,
        element_size=8,
        tile_overlap=2,
        config=ClusterConfig(network_latency=1e-5, disk_overhead=1e-4),
    )


class TestExperimentSweeps:
    def test_exp1_produces_one_row_per_backend_and_count(self):
        rows = run_exp1_overlap_scalability(tiny_settings())
        assert len(rows) == 2 * 2
        assert {row["backend"] for row in rows} == {"versioning", "posix-locking"}
        assert all(row["throughput_mib_s"] > 0 for row in rows)
        assert all(row["experiment"] == "EXP1" for row in rows)

    def test_exp1b_marks_rows_and_uses_disjoint_accesses(self):
        rows = run_exp1b_nonoverlapping(tiny_settings())
        assert all(row["experiment"] == "EXP1b" for row in rows)
        assert all(row["overlap"] == 0.0 for row in rows)
        assert {row["backend"] for row in rows} == {
            "versioning", "posix-locking", "conflict-detect"}

    def test_exp2_rows_describe_the_tile_grid(self):
        rows = run_exp2_tile_io(tiny_settings())
        assert all("x" in row["tile_grid"] for row in rows)
        assert all(row["throughput_mib_s"] > 0 for row in rows)

    def test_exp3_speedup_rows(self):
        rows = run_exp3_speedup_table(tiny_settings())
        assert rows
        for row in rows:
            assert row["speedup"] == pytest.approx(
                row["versioning_mib_s"] / row["lustre_locking_mib_s"])

    def test_abl1_striping_rows(self):
        rows = run_abl1_striping(tiny_settings(), provider_counts=(1, 2),
                                 num_clients=2)
        assert [row["providers"] for row in rows] == [1, 2]
        assert all(row["load_imbalance"] >= 1.0 for row in rows)

    def test_abl2_covers_all_drivers_and_overlaps(self):
        rows = run_abl2_lock_granularity(tiny_settings(), num_clients=2,
                                         overlaps=(0.0, 0.5))
        assert len(rows) == 2 * 4
        assert {row["backend"] for row in rows} == {
            "posix-locking", "posix-listlock", "conflict-detect", "versioning"}

    def test_abl3_metadata_rows(self):
        rows = run_abl3_metadata_overhead(tiny_settings(), num_clients=2,
                                          regions_per_client_values=(1, 4),
                                          publish_costs=(0.0,))
        nodes = {row["regions_per_client"]: row["metadata_nodes"] for row in rows}
        assert nodes[4] > nodes[1]

    def test_fut1_producer_consumer_rows(self):
        rows = run_fut1_producer_consumer(tiny_settings(),
                                          num_producers=2, num_consumers=1,
                                          iterations=2)
        assert {row["backend"] for row in rows} == {"versioning", "posix-locking"}
        for row in rows:
            assert row["producer_mib_s"] > 0
            assert row["consumer_read_latency_s"] > 0

    def test_fut1_invalid_arguments(self):
        with pytest.raises(BenchmarkError):
            run_fut1_producer_consumer(tiny_settings(), num_producers=0)
