"""Unit tests for the Experiment-1 overlapped-write workload generator."""

import pytest

from repro.errors import BenchmarkError
from repro.workloads.overlap_stress import OverlapStressWorkload


def overlapping_client_pairs(workload):
    """All pairs of clients whose regions overlap."""
    regions = [workload.client_regions(client)
               for client in range(workload.num_clients)]
    return [(a, b) for a in range(workload.num_clients)
            for b in range(a + 1, workload.num_clients)
            if regions[a].overlaps(regions[b])]


class TestOverlapStressWorkload:
    def test_invalid_parameters(self):
        with pytest.raises(BenchmarkError):
            OverlapStressWorkload(num_clients=0)
        with pytest.raises(BenchmarkError):
            OverlapStressWorkload(num_clients=1, regions_per_client=0)
        with pytest.raises(BenchmarkError):
            OverlapStressWorkload(num_clients=1, region_size=0)
        with pytest.raises(BenchmarkError):
            OverlapStressWorkload(num_clients=1, overlap_fraction=1.0)

    def test_region_counts_and_sizes(self):
        workload = OverlapStressWorkload(num_clients=4, regions_per_client=8,
                                         region_size=1024)
        for client in range(4):
            regions = workload.client_regions(client)
            assert len(regions) == 8
            assert all(region.size == 1024 for region in regions)
        assert workload.bytes_per_client == 8 * 1024
        assert sum(workload.client_regions(client).total_bytes()
                   for client in range(4)) == 4 * 8 * 1024

    def test_neighbouring_clients_overlap(self):
        workload = OverlapStressWorkload(num_clients=4, regions_per_client=4,
                                         region_size=1024, overlap_fraction=0.5)
        pairs = overlapping_client_pairs(workload)
        assert (0, 1) in pairs and (1, 2) in pairs and (2, 3) in pairs

    def test_zero_overlap_fraction_gives_disjoint_accesses(self):
        workload = OverlapStressWorkload(num_clients=4, regions_per_client=4,
                                         region_size=1024, overlap_fraction=0.0)
        assert overlapping_client_pairs(workload) == []

    def test_higher_overlap_fraction_increases_overlap(self):
        small = OverlapStressWorkload(num_clients=2, regions_per_client=1,
                                      region_size=1000, overlap_fraction=0.25)
        large = OverlapStressWorkload(num_clients=2, regions_per_client=1,
                                      region_size=1000, overlap_fraction=0.75)

        def overlap_bytes(workload):
            return workload.client_regions(0).intersection(
                workload.client_regions(1)).total_bytes()

        assert overlap_bytes(large) > overlap_bytes(small) > 0

    def test_file_size_covers_every_region(self):
        workload = OverlapStressWorkload(num_clients=3, regions_per_client=5,
                                         region_size=512, overlap_fraction=0.5)
        last_end = max(region.end
                       for client in range(3)
                       for region in workload.client_regions(client))
        assert workload.file_size >= last_end

    def test_pairs_are_writer_tagged(self):
        workload = OverlapStressWorkload(num_clients=3, regions_per_client=2,
                                         region_size=128)
        for client in range(3):
            for _offset, data in workload.client_pairs(client):
                assert set(data) == {client + 1}

    def test_client_pairs_carry_bytes_per_client(self):
        workload = OverlapStressWorkload(num_clients=2, regions_per_client=3,
                                         region_size=256)
        pairs = workload.client_pairs(1)
        assert [offset for offset, _data in pairs] \
            == [region.offset for region in workload.client_regions(1)]
        assert sum(len(data) for _offset, data in pairs) \
            == workload.bytes_per_client

    def test_invalid_client_index(self):
        workload = OverlapStressWorkload(num_clients=2)
        with pytest.raises(BenchmarkError):
            workload.client_regions(5)
