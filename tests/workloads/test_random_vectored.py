"""RandomVectoredWorkload: the fuzzer's randomized noncontiguous pattern."""

import pytest

from repro.errors import BenchmarkError
from repro.workloads import RandomVectoredWorkload
from tests._workloads import union_extent

FILE_SIZE = 8 * 1024


def make(seed=5, **overrides):
    params = dict(num_ranks=3, file_size=FILE_SIZE, seed=seed)
    params.update(overrides)
    return RandomVectoredWorkload(**params)


def test_same_seed_same_pattern():
    first = make()
    second = make()
    for rank in range(3):
        assert first.write_pairs(rank) == second.write_pairs(rank)
        assert first.read_regions(rank) == second.read_regions(rank)


def test_different_seeds_differ():
    assert make(seed=1).write_pairs(0) != make(seed=2).write_pairs(0)


def test_regions_are_disjoint_within_a_rank_and_in_bounds():
    workload = make(empty_rank_chance=0.0)
    for rank in range(3):
        spans = sorted((offset, offset + len(payload))
                       for offset, payload in workload.write_pairs(rank))
        assert spans, "empty_rank_chance=0 must give every rank work"
        for (_, prev_hi), (lo, _) in zip(spans, spans[1:]):
            assert prev_hi <= lo
        for lo, hi in spans:
            assert 0 <= lo < hi <= FILE_SIZE


def test_window_confines_every_region():
    workload = make(window=(1024, 2048), max_region_size=400,
                    empty_rank_chance=0.0)
    lo, hi = union_extent(workload)
    assert 1024 <= lo and hi <= 3072


def test_every_region_is_one_nonzero_fill_byte():
    """A region's payload is its spec's fill byte, never zero, so a read
    tells which rank's region (or a hole) it sees."""
    workload = make(empty_rank_chance=0.0)
    for rank in range(3):
        pairs = workload.write_pairs(rank)
        specs = workload.rank_specs(rank)
        assert [(offset, len(payload)) for offset, payload in pairs] \
            == [(offset, size) for offset, size, _fill in specs]
        for (_offset, payload), (_o, _s, fill) in zip(pairs, specs):
            assert set(payload) == {fill} and fill != 0


def test_read_regions_mirror_write_regions():
    workload = make(empty_rank_chance=0.0)
    for rank in range(3):
        assert workload.read_regions(rank) \
            == [(offset, len(payload))
                for offset, payload in workload.write_pairs(rank)]


def test_halo_read_regions_grow_merge_and_stay_in_bounds():
    workload = make(empty_rank_chance=0.0)
    for rank in range(3):
        halo = workload.halo_read_regions(rank, 64)
        base = workload.read_regions(rank)
        assert sum(size for _o, size in halo) \
            >= sum(size for _o, size in base)
        previous_end = -1
        for offset, size in halo:
            assert offset > previous_end       # merged: strictly disjoint
            assert 0 <= offset and offset + size <= FILE_SIZE
            previous_end = offset + size
        # every base region is covered by some halo region
        for offset, size in base:
            assert any(h_off <= offset and offset + size <= h_off + h_size
                       for h_off, h_size in halo)


def test_some_seeds_overlap_across_ranks():
    """The pattern is meant to make ranks collide (atomicity only matters
    where they do): over a handful of seeds some two ranks' regions
    intersect."""
    def overlaps(workload):
        spans = sorted((offset, offset + size, rank) for rank in range(3)
                       for offset, size, _fill in workload.rank_specs(rank))
        return any(rank_a != rank_b and lo_b < hi_a
                   for (_lo_a, hi_a, rank_a), (lo_b, _hi_b, rank_b)
                   in zip(spans, spans[1:]))

    assert any(overlaps(make(seed=seed, empty_rank_chance=0.0))
               for seed in range(10))


@pytest.mark.parametrize("params", [
    {"num_ranks": 0},
    {"file_size": 0},
    {"max_regions": 0},
    {"max_region_size": 0},
    {"empty_rank_chance": 1.0},
    {"window": (0, 10 ** 9)},
    {"window": (-1, 128)},
])
def test_invalid_parameters_raise(params):
    with pytest.raises(BenchmarkError):
        make(**params)
