"""Unit tests for the MPI-tile-IO workload generator."""

import pytest

from repro.errors import BenchmarkError
from repro.workloads.tile_io import TileIOWorkload
from tests._regions import RegionList, regions_union


def rank_regions(workload, rank):
    return RegionList(workload.rank_extents(rank))


class TestTileIOWorkload:
    def test_invalid_parameters(self):
        with pytest.raises(BenchmarkError):
            TileIOWorkload(nr_tiles_x=0)
        with pytest.raises(BenchmarkError):
            TileIOWorkload(sz_tile_x=0)
        with pytest.raises(BenchmarkError):
            TileIOWorkload(sz_element=0)
        with pytest.raises(BenchmarkError):
            TileIOWorkload(overlap_x=-1)
        with pytest.raises(BenchmarkError):
            TileIOWorkload(sz_tile_x=16, overlap_x=16)

    def test_array_dimensions_account_for_overlap(self):
        workload = TileIOWorkload(nr_tiles_x=2, nr_tiles_y=2, sz_tile_x=10,
                                  sz_tile_y=10, sz_element=1, overlap_x=2,
                                  overlap_y=2)
        assert workload.array_size_x == 2 * 8 + 2 == 18
        assert workload.array_size_y == 18
        assert workload.file_size == 18 * 18
        assert workload.num_processes == 4

    def test_tile_coords_and_start(self):
        workload = TileIOWorkload(nr_tiles_x=3, nr_tiles_y=2, sz_tile_x=10,
                                  sz_tile_y=10, sz_element=1, overlap_x=2,
                                  overlap_y=2)
        assert workload.tile_coords(0) == (0, 0)
        assert workload.tile_coords(2) == (0, 2)
        assert workload.tile_coords(3) == (1, 0)
        assert workload.tile_start(4) == (8, 8)

    def test_rank_regions_one_per_row(self):
        workload = TileIOWorkload(nr_tiles_x=2, nr_tiles_y=2, sz_tile_x=8,
                                  sz_tile_y=8, sz_element=4, overlap_x=0,
                                  overlap_y=0)
        regions = rank_regions(workload, 0)
        assert len(regions) == 8
        assert all(region.size == 8 * 4 for region in regions)
        assert regions.total_bytes() == 8 * 8 * 4

    def test_adjacent_tiles_overlap(self):
        workload = TileIOWorkload(nr_tiles_x=2, nr_tiles_y=1, sz_tile_x=10,
                                  sz_tile_y=4, sz_element=1, overlap_x=2,
                                  overlap_y=0)
        assert rank_regions(workload, 0).overlaps(rank_regions(workload, 1))

    def test_no_overlap_configuration(self):
        workload = TileIOWorkload(nr_tiles_x=2, nr_tiles_y=2, sz_tile_x=8,
                                  sz_tile_y=8, sz_element=1, overlap_x=0,
                                  overlap_y=0)
        assert not any(
            rank_regions(workload, a).overlaps(rank_regions(workload, b))
            for a in range(workload.num_processes)
            for b in range(a + 1, workload.num_processes))
        union = RegionList()
        for rank in range(workload.num_processes):
            union = regions_union(union, rank_regions(workload, rank))
        assert union.total_bytes() == workload.file_size

    def test_full_coverage_with_overlap(self):
        workload = TileIOWorkload(nr_tiles_x=2, nr_tiles_y=2, sz_tile_x=6,
                                  sz_tile_y=6, sz_element=2, overlap_x=2,
                                  overlap_y=2)
        union = RegionList()
        for rank in range(workload.num_processes):
            union = regions_union(union, rank_regions(workload, rank))
        assert union.total_bytes() == workload.file_size

    def test_pairs_are_writer_tagged(self):
        workload = TileIOWorkload(nr_tiles_x=2, nr_tiles_y=1, sz_tile_x=4,
                                  sz_tile_y=4, sz_element=1, overlap_x=1,
                                  overlap_y=0)
        for rank in range(workload.num_processes):
            for _offset, data in workload.rank_pairs(rank):
                assert set(data) == {rank + 1}

    def test_scaled_to_keeps_tile_shape(self):
        base = TileIOWorkload(sz_tile_x=32, sz_tile_y=32, sz_element=8,
                              overlap_x=4, overlap_y=4)
        scaled = base.scaled_to(6)
        assert scaled.num_processes == 6
        assert {scaled.nr_tiles_x, scaled.nr_tiles_y} == {2, 3}
        assert scaled.sz_tile_x == 32 and scaled.sz_element == 8

    def test_invalid_rank(self):
        workload = TileIOWorkload(nr_tiles_x=2, nr_tiles_y=2)
        with pytest.raises(BenchmarkError):
            workload.tile_coords(10)
        with pytest.raises(BenchmarkError):
            workload.scaled_to(0)
