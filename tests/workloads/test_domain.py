"""Unit tests for the ghost-cell domain decomposition."""

import pytest

from repro.core.regions import RegionList
from repro.errors import BenchmarkError
from repro.workloads.domain import DomainDecomposition, process_grid
from tests._regions import regions_union


class TestProcessGrid:
    def test_balanced_factorizations(self):
        assert process_grid(4, 2) == (2, 2)
        assert process_grid(8, 2) == (4, 2)
        assert process_grid(12, 2) == (4, 3)
        assert process_grid(6, 3) in ((3, 2, 1), (2, 3, 1))

    def test_prime_counts(self):
        assert process_grid(7, 2) == (7, 1)

    def test_one_process(self):
        assert process_grid(1, 3) == (1, 1, 1)

    def test_invalid_arguments(self):
        with pytest.raises(BenchmarkError):
            process_grid(0, 2)
        with pytest.raises(BenchmarkError):
            process_grid(4, 0)

    def test_product_equals_process_count(self):
        for count in range(1, 33):
            grid = process_grid(count, 2)
            assert grid[0] * grid[1] == count


class TestDomainDecomposition:
    def test_subdomains_cover_domain_without_ghosts(self):
        decomposition = DomainDecomposition((16, 16), num_processes=4, ghost=0,
                                            element_size=1)
        union = RegionList()
        for rank in range(4):
            union = regions_union(
                union, decomposition.rank_regions(rank, with_ghosts=False))
        assert union.as_tuples() == [(0, 256)]

    def test_ghost_blocks_overlap_neighbours(self):
        decomposition = DomainDecomposition((16, 16), num_processes=4, ghost=2,
                                            element_size=1)
        assert decomposition.overlap_pairs()  # at least one overlapping pair

    def test_no_ghost_no_overlap(self):
        decomposition = DomainDecomposition((16, 16), num_processes=4, ghost=0,
                                            element_size=1)
        assert decomposition.overlap_pairs() == []

    def test_ghost_clipped_at_domain_boundary(self):
        decomposition = DomainDecomposition((8, 8), num_processes=4, ghost=3,
                                            element_size=1)
        for rank in range(4):
            block = decomposition.subdomain(rank)
            for start, size, full in zip(block.starts, block.sizes,
                                         decomposition.sizes):
                assert start >= 0
                assert start + size <= full

    def test_grid_coords_roundtrip(self):
        decomposition = DomainDecomposition((8, 8), num_processes=6, ghost=0,
                                            element_size=1)
        seen = {decomposition.grid_coords(rank) for rank in range(6)}
        assert len(seen) == 6

    def test_rank_write_pairs_match_regions(self):
        decomposition = DomainDecomposition((8, 8), num_processes=4, ghost=1,
                                            element_size=4)
        pairs = decomposition.rank_write_pairs(2)
        regions = decomposition.rank_regions(2)
        assert len(pairs) == len(regions)
        for (offset, data), region in zip(pairs, regions):
            assert offset == region.offset
            assert len(data) == region.size
            assert set(data) == {3}

    def test_file_size_and_total_bytes(self):
        decomposition = DomainDecomposition((8, 8), num_processes=4, ghost=1,
                                            element_size=8)
        assert decomposition.file_size == 8 * 8 * 8
        assert decomposition.total_written_bytes() > decomposition.file_size

    def test_datatype_size_matches_block(self):
        decomposition = DomainDecomposition((16, 8), num_processes=4, ghost=1,
                                            element_size=2)
        for rank in range(4):
            block = decomposition.subdomain(rank)
            datatype = decomposition.rank_datatype(rank)
            assert datatype.size == block.cells * 2

    def test_invalid_parameters(self):
        with pytest.raises(BenchmarkError):
            DomainDecomposition((0, 8), 4)
        with pytest.raises(BenchmarkError):
            DomainDecomposition((8, 8), 4, ghost=-1)
        with pytest.raises(BenchmarkError):
            DomainDecomposition((8, 8), 4, element_size=0)
        with pytest.raises(BenchmarkError):
            DomainDecomposition((2, 2), 64)  # more processes than cells per dim
        decomposition = DomainDecomposition((8, 8), 4)
        with pytest.raises(BenchmarkError):
            decomposition.grid_coords(99)
