"""Unit tests for the ghost-cell stencil simulation workload."""

import numpy as np
import pytest

from repro.errors import BenchmarkError
from repro.workloads.ghost_cells import GhostCellSimulation
from repro.workloads.tile_io import tile_grid
from tests._regions import RegionList, regions_union


class TestTileGrid:
    def test_balanced_factorizations(self):
        assert tile_grid(4) == (2, 2)
        assert tile_grid(8) == (2, 4)
        assert tile_grid(12) == (3, 4)

    def test_prime_and_single_counts(self):
        assert tile_grid(7) == (1, 7)
        assert tile_grid(1) == (1, 1)

    def test_product_equals_process_count(self):
        for count in range(1, 33):
            tiles_x, tiles_y = tile_grid(count)
            assert tiles_x * tiles_y == count and tiles_x <= tiles_y

    def test_invalid_count(self):
        with pytest.raises(BenchmarkError):
            tile_grid(0)


class TestGhostCellSimulation:
    def test_invalid_parameters(self):
        with pytest.raises(BenchmarkError):
            GhostCellSimulation(domain_x=0)
        with pytest.raises(BenchmarkError):
            GhostCellSimulation(alpha=0.5)
        with pytest.raises(BenchmarkError):
            GhostCellSimulation(ghost=-1)
        with pytest.raises(BenchmarkError):
            GhostCellSimulation(domain_x=2, domain_y=2, num_ranks=64)

    @pytest.mark.parametrize("shape", [
        dict(domain_x=48, domain_y=48, num_ranks=9, ghost=2),  # 3 a side
        dict(domain_x=17, domain_y=16, num_ranks=4, ghost=1),  # uneven x
        dict(domain_x=4, domain_y=4, num_ranks=1, ghost=2),  # ghosts > core
    ])
    def test_shapes_the_tile_layout_cannot_express_are_rejected(self, shape):
        with pytest.raises(BenchmarkError):
            GhostCellSimulation(**shape)

    def test_ghostless_ranks_may_split_a_dimension_in_more_than_two(self):
        simulation = GhostCellSimulation(domain_x=9, domain_y=9, num_ranks=9,
                                         ghost=0)
        assert (simulation.tiles.nr_tiles_x, simulation.tiles.nr_tiles_y,
                simulation.tiles.sz_tile_x) == (3, 3, 3)

    @pytest.mark.parametrize("domain,ranks,ghost", [
        (48, 4, 2), (32, 4, 2), (16, 4, 1), (16, 4, 2), (8, 2, 2), (16, 4, 0)])
    def test_blocks_are_cores_plus_clipped_ghosts_covering_the_domain(
            self, domain, ranks, ghost):
        simulation = GhostCellSimulation(domain_x=domain, domain_y=domain,
                                         num_ranks=ranks, ghost=ghost)
        tiles_x, tiles_y = tile_grid(ranks)
        itemsize = simulation.element_dtype.itemsize
        assert simulation.file_size == domain * domain * itemsize
        union = RegionList()
        for rank in range(ranks):
            rows, cols = simulation.rank_block(rank)
            tile_y, tile_x = divmod(rank, tiles_x)
            for block, coord, count in ((rows, tile_y, tiles_y),
                                        (cols, tile_x, tiles_x)):
                core = domain // count
                assert block.start == max(0, coord * core - ghost)
                assert block.stop == min(domain, (coord + 1) * core + ghost)
            union = regions_union(union, RegionList(simulation.tiles.rank_extents(rank)))
        assert union.as_tuples() == [(0, simulation.file_size)]

    def test_neighbours_overlap_by_twice_the_ghost_width(self):
        for ghost in (0, 1, 2):
            simulation = GhostCellSimulation(domain_x=16, domain_y=16,
                                             num_ranks=4, ghost=ghost)
            left, right = (simulation.rank_block(rank)[1] for rank in (0, 1))
            assert left.stop - right.start == 2 * ghost
            regions = [RegionList(simulation.tiles.rank_extents(rank))
                       for rank in range(4)]
            assert regions[0].overlaps(regions[1]) == (ghost > 0)
            assert regions[0].overlaps(regions[3]) == (ghost > 0)

    def test_initial_field_has_hot_region(self):
        simulation = GhostCellSimulation(domain_x=32, domain_y=32, num_ranks=4)
        assert simulation.field.max() == 100.0
        assert simulation.field.min() == 0.0

    def test_step_diffuses_heat(self):
        simulation = GhostCellSimulation(domain_x=32, domain_y=32, num_ranks=4)
        initial_max = simulation.field.max()
        initial_heat = float(simulation.field.sum())
        for _ in range(5):
            simulation.step()
        assert simulation.iteration == 5
        assert simulation.field.max() < initial_max
        # interior diffusion conserves heat (no flux leaves in 5 tiny steps
        # because the hot square sits far from the boundary)
        assert float(simulation.field.sum()) \
            == pytest.approx(initial_heat, rel=1e-9)

    def test_dump_pairs_cover_each_rank_block(self):
        simulation = GhostCellSimulation(domain_x=32, domain_y=32, num_ranks=4,
                                         ghost=2)
        for rank in range(4):
            pairs = simulation.rank_dump_pairs(rank)
            regions = RegionList(simulation.tiles.rank_extents(rank))
            assert len(pairs) == len(regions)
            assert sum(len(data) for _, data in pairs) == \
                regions.total_bytes()

    def test_dumps_reassemble_to_global_field(self):
        simulation = GhostCellSimulation(domain_x=16, domain_y=16, num_ranks=4,
                                         ghost=1)
        simulation.step()
        content = bytearray(simulation.file_size)
        for rank in range(4):
            for offset, data in simulation.rank_dump_pairs(rank):
                content[offset:offset + len(data)] = data
        reassembled = simulation.decode_file(bytes(content))
        np.testing.assert_array_equal(reassembled, simulation.field)

    def test_overlapping_ranks_write_identical_ghost_values(self):
        simulation = GhostCellSimulation(domain_x=16, domain_y=16, num_ranks=4,
                                         ghost=2)
        simulation.step()
        # every rank writes the same global values in its ghost region,
        # so any serialization of the dumps produces the full field
        expected = simulation.field.tobytes()
        # applying ranks in *any* order must give the same file: the ghost
        # bytes written by several ranks carry identical values
        import itertools

        orders = list(itertools.permutations(range(4)))[:6]
        results = set()
        for order in orders:
            content = bytearray(simulation.file_size)
            for rank in order:
                for offset, data in simulation.rank_dump_pairs(rank):
                    content[offset:offset + len(data)] = data
            results.add(bytes(content))
        assert results == {expected}

    def test_decode_file_pads_short_content(self):
        simulation = GhostCellSimulation(domain_x=8, domain_y=8, num_ranks=2)
        decoded = simulation.decode_file(b"")
        assert decoded.shape == (8, 8)
        assert decoded.sum() == 0.0
