"""Tests for the experiment point functions (tiny parameter sets).

These are correctness tests of the points — the real, larger runs are the
``paper`` and ``ablations`` suites (``BENCH_paper.json``,
``BENCH_ablations.json``, asserted under ``benchmarks/``).
"""

from types import SimpleNamespace

import pytest

from repro.bench.experiments import (
    run_ablation_point,
    run_overlap_point,
    run_paper_point,
    run_tile_point,
)
from repro.cluster import ClusterConfig
from repro.errors import BenchmarkError

CONFIG = ClusterConfig(network_latency=1e-5, disk_overhead=1e-4)
BOTH = ("versioning", "posix-locking")


def tiny_settings(**fut1):
    return SimpleNamespace(
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
        **fut1,
    )


def ablation_rows(experiment, points, **settings):
    return [run_ablation_point(tiny_settings(**settings), CONFIG,
                               experiment=experiment, **kwargs)[0]
            for kwargs in points]


class TestExperimentPoints:
    def test_exp1_produces_one_row_per_backend_and_count(self):
        rows = [run_overlap_point(tiny_settings(), CONFIG, experiment="EXP1",
                                  backend=backend, clients=clients)[0]
                for clients in (1, 2) for backend in BOTH]
        assert {(row["backend"], row["clients"]) for row in rows} \
            == {(backend, clients) for clients in (1, 2) for backend in BOTH}
        assert all(row["throughput_mib_s"] > 0 for row in rows)
        assert all(row["experiment"] == "EXP1" for row in rows)
        assert all(row["overlap"] == 0.5 and row["region_kib"] == 8
                   for row in rows)

    def test_exp1b_marks_rows_and_uses_disjoint_accesses(self):
        rows = ablation_rows("EXP1b", [
            dict(backend=backend, clients=2, overlap=0.0)
            for backend in BOTH + ("conflict-detect",)])
        assert all(row["experiment"] == "EXP1b" for row in rows)
        assert all(row["overlap"] == 0.0 for row in rows)
        assert {row["backend"] for row in rows} == {
            "versioning", "posix-locking", "conflict-detect"}

    def test_exp2_rows_describe_the_tile_grid(self):
        rows = [run_tile_point(tiny_settings(), CONFIG, backend=backend,
                               clients=clients)[0]
                for clients in (1, 2) for backend in BOTH]
        assert all("x" in row["tile_grid"] for row in rows)
        assert all(row["throughput_mib_s"] > 0 for row in rows)

    @pytest.mark.parametrize("experiment", ["EXP1", "EXP2"])
    def test_exp3_row_is_versioning_over_locking(self, experiment):
        row, backends = run_paper_point(tiny_settings(), CONFIG,
                                        experiment=experiment, clients=2)
        assert row["speedup"] == pytest.approx(
            row["versioning_mib_s"] / row["lustre_locking_mib_s"])
        assert row["in_paper_band"] == (3.5 <= row["speedup"] <= 10)
        assert set(backends) == set(BOTH)
        assert backends["versioning"]["throughput_mib_s"] \
            == row["versioning_mib_s"]
        assert backends["posix-locking"]["experiment"] == experiment

    def test_abl1_striping_rows(self):
        rows = ablation_rows("ABL1", [
            dict(backend="versioning", clients=2, providers=providers)
            for providers in (1, 2)])
        assert [row["providers"] for row in rows] == [1, 2]
        assert all(row["load_imbalance"] >= 1.0 for row in rows)

    def test_abl2_covers_all_drivers_and_overlaps(self):
        backends = ("posix-locking", "posix-listlock", "conflict-detect",
                    "versioning")
        rows = ablation_rows("ABL2", [
            dict(backend=backend, clients=2, overlap=overlap)
            for overlap in (0.0, 0.5) for backend in backends])
        assert len(rows) == 2 * 4
        assert {row["backend"] for row in rows} == set(backends)
        assert {row["overlap"] for row in rows} == {0.0, 0.5}

    def test_abl3_metadata_rows(self):
        rows = ablation_rows("ABL3", [
            dict(backend="versioning", clients=2,
                 regions_per_client=regions,
                 region_size=max(4096, 8192 // regions))
            for regions in (1, 4)])
        nodes = {row["regions_per_client"]: row["metadata_nodes"] for row in rows}
        assert nodes[4] > nodes[1]

    def test_fut1_producer_consumer_rows(self):
        rows = ablation_rows("FUT1", [dict(backend=backend) for backend in BOTH],
                             num_producers=2, num_consumers=1, iterations=2)
        assert {row["backend"] for row in rows} == set(BOTH)
        for row in rows:
            assert row["producer_mib_s"] > 0
            assert row["consumer_read_latency_s"] > 0

    def test_fut1_invalid_arguments(self):
        with pytest.raises(BenchmarkError):
            ablation_rows("FUT1", [dict(backend="versioning")],
                          num_producers=0, num_consumers=1, iterations=1)
