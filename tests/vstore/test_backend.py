"""Unit/integration tests for the synchronous VersioningBackend facade."""

import pytest

from repro import VersioningBackend
from repro.cluster import ClusterConfig
from repro.errors import OutOfBounds, StorageError
from repro.obs.registry import MetricsRegistry
from repro.obs.views import collect_all


@pytest.fixture
def backend():
    return VersioningBackend(num_providers=3, chunk_size=64,
                             config=ClusterConfig(network_latency=1e-5))


class TestFacadeBasics:
    def test_quickstart_roundtrip(self, backend):
        blob = backend.create_blob("blob", size=1024)
        receipt = backend.vwrite(blob, [(0, b"abcd"), (512, b"wxyz")])
        assert receipt.version == 1
        assert backend.vread(blob, [(0, 4), (512, 4)]) == [b"abcd", b"wxyz"]

    def test_describe(self, backend):
        backend.create_blob("blob", size=100)
        descriptor = backend.describe("blob")
        assert descriptor.chunk_size == 64
        assert descriptor.capacity == 128

    def test_contiguous_helpers(self, backend):
        backend.create_blob("blob", size=256)
        backend.write("blob", 10, b"hello")
        assert backend.read("blob", 10, 5) == b"hello"
        assert backend.read("blob", 0, 2) == b"\x00\x00"

    def test_latest_version_advances(self, backend):
        backend.create_blob("blob", size=256)
        assert backend.latest_version("blob") == 0
        backend.write("blob", 0, b"a")
        backend.write("blob", 0, b"b")
        assert backend.latest_version("blob") == 2

    def test_versioned_reads(self, backend):
        backend.create_blob("blob", size=256)
        first = backend.write("blob", 0, b"AAAA")
        second = backend.write("blob", 0, b"BBBB")
        assert backend.read("blob", 0, 4, version=first.version) == b"AAAA"
        assert backend.read("blob", 0, 4, version=second.version) == b"BBBB"
        assert backend.read("blob", 0, 4, version=0) == b"\x00" * 4

    def test_overlapping_requests_within_one_vector_last_wins(self, backend):
        backend.create_blob("blob", size=256)
        backend.vwrite("blob", [(0, b"AAAAAAAA"), (4, b"BBBB")])
        assert backend.read("blob", 0, 8) == b"AAAABBBB"

    def test_out_of_bounds_write_rejected(self, backend):
        backend.create_blob("blob", size=64)
        with pytest.raises(OutOfBounds):
            backend.vwrite("blob", [(60, b"too long payload")])

    def test_empty_write_rejected(self, backend):
        backend.create_blob("blob", size=64)
        with pytest.raises(StorageError):
            backend.vwrite("blob", [])

    def test_read_vector_where_write_expected_rejected(self, backend):
        from repro.core.listio import IOVector

        backend.create_blob("blob", size=64)
        with pytest.raises(StorageError):
            backend.vwrite("blob", IOVector.for_read([(0, 4)]))
        with pytest.raises(StorageError):
            backend.vread("blob", IOVector.for_write([(0, b"ab")]))

    def test_stats_reflect_activity(self, backend):
        backend.create_blob("blob", size=1024)
        backend.vwrite("blob", [(0, b"x" * 300)])
        metrics = collect_all(MetricsRegistry(), cluster=backend.cluster,
                              deployment=backend.deployment,
                              clients=[backend.client])
        assert metrics.get("storage.stored_bytes") == 300
        assert metrics.get("version.snapshots_published") == 1
        assert metrics.get("client.bytes_written") == 300
        assert metrics.get("net.bytes") > 0

    def test_many_small_noncontiguous_regions(self, backend):
        blob = backend.create_blob("blob", size=4096)
        pairs = [(index * 128, bytes([index]) * 16) for index in range(32)]
        backend.vwrite(blob, pairs)
        results = backend.vread(blob, [(offset, 16) for offset, _ in pairs])
        assert results == [data for _, data in pairs]

    def test_simulated_time_advances(self, backend):
        backend.create_blob("blob", size=1024)
        before = backend.cluster.now
        backend.vwrite("blob", [(0, b"x" * 1024)])
        assert backend.cluster.now > before
