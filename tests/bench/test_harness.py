"""Tests for the benchmark harness, metrics and reporting."""

import pytest

from repro.bench.environment import BACKENDS, build_environment
from repro.bench.harness import run_atomic_write_job, verify_job_atomicity
from repro.bench.metrics import ThroughputSample
from repro.bench.reporting import format_series, format_table
from repro.cluster import ClusterConfig
from repro.errors import BenchmarkError
from repro.obs.registry import MetricsRegistry
from repro.obs.views import collect_all
from repro.workloads.overlap_stress import OverlapStressWorkload

QUICK = ClusterConfig(network_latency=1e-5, disk_overhead=1e-4)


class TestMetrics:
    def test_throughput_sample(self):
        sample = ThroughputSample("versioning", 4, total_bytes=4 * 1024 * 1024,
                                  elapsed=2.0)
        assert sample.throughput == 2 * 1024 * 1024
        assert sample.throughput_mib == pytest.approx(2.0)

    def test_zero_elapsed_gives_infinite_throughput(self):
        sample = ThroughputSample("x", 1, total_bytes=10, elapsed=0.0)
        assert sample.throughput == float("inf")


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        rows = [{"backend": "versioning", "throughput": 123.456},
                {"backend": "posix-locking", "throughput": 12.3}]
        text = format_table(rows, title="EXP1")
        assert "EXP1" in text
        assert "versioning" in text
        assert "123.46" in text
        lines = text.splitlines()
        assert len(lines) == 5  # title, header, separator, two rows

    def test_format_table_empty(self):
        assert "(no data)" in format_table([])

    def test_format_table_bools_and_missing(self):
        rows = [{"a": True, "b": 1}, {"a": False}]
        text = format_table(rows, columns=["a", "b"])
        assert "yes" in text and "no" in text

    def test_format_series(self):
        series = {"versioning": {1: 10.0, 2: 20.0},
                  "posix-locking": {1: 5.0, 2: 5.0}}
        text = format_series(series, title="Fig A")
        assert "Fig A" in text
        assert "versioning (MiB/s)" in text
        assert "20.00" in text


class TestEnvironment:
    def test_unknown_backend_rejected(self):
        with pytest.raises(BenchmarkError):
            build_environment("not-a-backend")

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_environments_build_for_every_backend(self, backend):
        environment = build_environment(backend, num_storage_nodes=2,
                                        config=QUICK)
        assert environment.backend == backend
        assert environment.num_storage_nodes == 2
        metrics = collect_all(MetricsRegistry(), cluster=environment.cluster)
        assert metrics.get("cluster.nodes") > 2
        if backend == "versioning":
            metrics = collect_all(MetricsRegistry(),
                                  deployment=environment.deployment)
            assert metrics.get("storage.providers") == 2
        else:
            assert environment.deployment.stats()["osts"] == 2

    def test_equal_storage_resources(self):
        versioning = build_environment("versioning", num_storage_nodes=4,
                                       config=QUICK)
        locking = build_environment("posix-locking", num_storage_nodes=4,
                                    config=QUICK)
        def storage_nodes(env):
            return [node for node in env.cluster.nodes.values()
                    if node.disk is not None]
        assert len(storage_nodes(versioning)) == len(storage_nodes(locking)) == 4


class TestHarness:
    def _workload(self, clients):
        return OverlapStressWorkload(num_clients=clients, regions_per_client=4,
                                     region_size=8192, overlap_fraction=0.5)

    @pytest.mark.parametrize("backend", ["versioning", "posix-locking"])
    def test_run_produces_consistent_result(self, backend):
        workload = self._workload(3)
        environment = build_environment(backend, num_storage_nodes=3,
                                        stripe_unit=4096, config=QUICK)
        result = run_atomic_write_job(environment, 3, workload.client_pairs,
                                      workload.file_size)
        assert result.backend == backend
        assert result.num_clients == 3
        assert result.total_bytes == 3 * workload.bytes_per_client
        # every rank's bytes reached a disk; each backend's counters ride
        # along under their registry names
        assert result.metrics["disk.bytes"] >= result.total_bytes
        assert result.metrics["disk.busy_s"] > 0
        assert ("storage.chunks" in result.metrics) == (backend == "versioning")
        assert ("lock.granted" in result.metrics) == (backend != "versioning")
        assert result.write_elapsed > 0
        assert result.throughput_mib > 0
        assert len(result.per_rank_elapsed) == 3
        assert result.sample.num_clients == 3

    @pytest.mark.parametrize("backend", ["versioning", "posix-locking"])
    def test_run_leaves_an_atomic_file_behind(self, backend):
        workload = self._workload(3)
        environment = build_environment(backend, num_storage_nodes=3,
                                        stripe_unit=4096, config=QUICK)
        result = run_atomic_write_job(environment, 3, workload.client_pairs,
                                      workload.file_size)
        assert verify_job_atomicity(environment, 3, workload.client_pairs, result)

    @pytest.mark.parametrize("clients", [11, 64])
    @pytest.mark.parametrize("backend", ["versioning", "posix-locking"])
    def test_verification_decides_a_chain_of_any_length(self, backend,
                                                        clients):
        """A chain of overlapping ranks is one conflict group, however long:
        the checker decides it without search."""
        workload = self._workload(clients)
        environment = build_environment(backend, num_storage_nodes=3,
                                        stripe_unit=4096, config=QUICK)
        result = run_atomic_write_job(environment, clients,
                                      workload.client_pairs,
                                      workload.file_size)
        assert verify_job_atomicity(environment, clients,
                                    workload.client_pairs, result) is True

    def test_locking_backend_reports_lock_wait(self):
        workload = self._workload(4)
        environment = build_environment("posix-locking", num_storage_nodes=3,
                                        stripe_unit=4096, config=QUICK)
        result = run_atomic_write_job(environment, 4, workload.client_pairs,
                                      workload.file_size)
        assert result.metrics["lock.fcntl_wait_s"] > 0
        # the versioning backend never waits on locks
        environment_v = build_environment("versioning", num_storage_nodes=3,
                                          stripe_unit=4096, config=QUICK)
        result_v = run_atomic_write_job(environment_v, 4, workload.client_pairs,
                                        workload.file_size)
        assert "lock.fcntl_wait_s" not in result_v.metrics

    def test_versioning_beats_locking_under_overlapping_concurrency(self):
        """The paper's headline claim at a small, test-friendly scale."""
        workload = self._workload(4)
        throughputs = {}
        for backend in ("versioning", "posix-locking"):
            environment = build_environment(backend, num_storage_nodes=4,
                                            stripe_unit=4096, config=QUICK)
            result = run_atomic_write_job(environment, 4, workload.client_pairs,
                                          workload.file_size)
            throughputs[backend] = result.sample.throughput
        assert throughputs["versioning"] > throughputs["posix-locking"]

    def test_invalid_client_count(self):
        environment = build_environment("versioning", num_storage_nodes=2,
                                        config=QUICK)
        with pytest.raises(BenchmarkError):
            run_atomic_write_job(environment, 0, lambda rank: [], 1024)
