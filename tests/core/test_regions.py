"""Unit tests for the byte-region record and the tests' region algebra."""

import pytest

from repro.core.regions import Region, clip_runs, coalesce_runs
from repro.errors import InvalidRegion
from tests._regions import (RegionList, canonical_runs, region_intersect,
                            region_minus, region_overlaps, region_pieces,
                            regions_minus, regions_union)


class TestRegion:
    def test_basic_properties(self):
        region = Region(10, 5)
        assert (region.offset, region.size, region.end) == (10, 5, 15)

    def test_empty_region(self):
        assert Region(3, 0).end == 3

    def test_invalid_regions_rejected(self):
        with pytest.raises(InvalidRegion):
            Region(-1, 5)
        with pytest.raises(InvalidRegion):
            Region(0, -2)

    def test_overlaps(self):
        assert region_overlaps(Region(0, 10), Region(5, 10))
        assert region_overlaps(Region(5, 10), Region(0, 10))
        assert not region_overlaps(Region(0, 10), Region(10, 5))   # adjacent
        assert not region_overlaps(Region(0, 10), Region(20, 5))
        assert not region_overlaps(Region(0, 0), Region(0, 10))    # empty never overlaps

    def test_intersect(self):
        assert region_intersect(Region(0, 10), Region(5, 10)) == Region(5, 5)
        assert region_intersect(Region(0, 10), Region(20, 5)).size == 0

    def test_subtract_middle_hole(self):
        pieces = region_minus(Region(0, 100), Region(40, 20))
        assert pieces == (Region(0, 40), Region(60, 40))

    def test_subtract_no_overlap(self):
        assert region_minus(Region(0, 10), Region(50, 5)) == (Region(0, 10),)

    def test_subtract_fully_covered(self):
        assert region_minus(Region(10, 5), Region(0, 100)) == ()

    def test_chunk_aligned_pieces(self):
        pieces = region_pieces(Region(5, 20), 8)
        assert pieces == (Region(5, 3), Region(8, 8), Region(16, 8), Region(24, 1))
        assert sum(piece.size for piece in pieces) == 20

    def test_chunk_aligned_pieces_already_aligned(self):
        assert region_pieces(Region(8, 8), 8) == (Region(8, 8),)

    def test_chunk_aligned_invalid_chunk_size(self):
        with pytest.raises(InvalidRegion):
            region_pieces(Region(0, 10), 0)

    def test_ordering_and_hash(self):
        assert Region(0, 5) < Region(1, 5)
        assert len({Region(0, 5), Region(0, 5)}) == 1


class TestRegionList:
    def test_construction_from_tuples(self):
        rl = RegionList([(0, 10), (20, 5)])
        assert len(rl) == 2
        assert rl[1] == Region(20, 5)

    def test_normalized_sorts_and_merges(self):
        rl = RegionList([(20, 10), (0, 10), (5, 10), (30, 0)])
        norm = rl.normalized()
        assert norm.as_tuples() == [(0, 15), (20, 10)]
        assert norm.is_normalized()

    def test_normalized_merges_adjacent(self):
        assert RegionList([(0, 10), (10, 10)]).normalized().as_tuples() == [(0, 20)]

    def test_normalize_idempotent(self):
        rl = RegionList([(3, 4), (1, 5), (10, 2)]).normalized()
        assert rl.normalized() == rl

    def test_total_and_covered_bytes(self):
        rl = RegionList([(0, 10), (5, 10)])
        assert rl.total_bytes() == 20
        assert rl.covered_bytes() == 15

    def test_union(self):
        a = RegionList([(0, 10)])
        b = RegionList([(5, 10), (30, 5)])
        assert regions_union(a, b).as_tuples() == [(0, 15), (30, 5)]

    def test_intersection(self):
        a = RegionList([(0, 10), (20, 10)])
        b = RegionList([(5, 20)])
        assert a.intersection(b).as_tuples() == [(5, 5), (20, 5)]

    def test_intersection_disjoint(self):
        a = RegionList([(0, 10)])
        b = RegionList([(10, 10)])
        assert len(a.intersection(b)) == 0
        assert not a.overlaps(b)

    def test_subtract(self):
        a = RegionList([(0, 30)])
        b = RegionList([(5, 5), (20, 5)])
        assert regions_minus(a, b).as_tuples() == [(0, 5), (10, 10), (25, 5)]

    def test_subtract_everything(self):
        a = RegionList([(0, 10)])
        assert len(regions_minus(a, RegionList([(0, 100)]))) == 0

    def test_clip_runs(self):
        runs = canonical_runs([(0, 10), (20, 10), (40, 10)])
        assert clip_runs(runs, 5, 35) == [(5, 10), (20, 30)]

    def test_equality_and_hash(self):
        assert RegionList([(0, 5)]) == RegionList([(0, 5)])
        assert hash(RegionList([(0, 5)])) == hash(RegionList([(0, 5)]))
        assert RegionList([(0, 5)]) != RegionList([(0, 6)])


def _byte_runs(covered):
    """Maximal runs of a byte set, as ``(offset, size)`` tuples."""
    runs = []
    for byte in sorted(covered):
        if runs and runs[-1][0] + runs[-1][1] == byte:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((byte, 1))
    return runs


def _mixed_regions(count, stride=10):
    """``count`` regions in reverse order: adjacent, overlapping, gapped and
    empty neighbours in turn."""
    sizes = (stride, stride + 5, 4, 0)
    return [(stride * i, sizes[i % 4]) for i in reversed(range(count))]


@pytest.mark.parametrize("count", [63, 64, 65, 200])
def test_normalized_many_regions_matches_byte_model(count):
    tuples = _mixed_regions(count)
    covered = {b for offset, size in tuples for b in range(offset, offset + size)}
    norm = RegionList(tuples).normalized()
    assert norm.is_normalized()
    assert norm.as_tuples() == _byte_runs(covered)


@pytest.mark.parametrize("count", [63, 64, 65, 200])
def test_coalesce_runs_many_regions_matches_pairwise_union(count):
    lists = [RegionList(_mixed_regions(count, stride))
             for stride in (7, 10, 13)]
    folded = RegionList()
    for lst in lists:
        folded = regions_union(folded, lst)
    covered = {b for lst in lists for r in lst for b in range(r.offset, r.end)}
    result = [(start, end - start) for start, end in coalesce_runs(
        [(r.offset, r.end) for lst in lists for r in lst if r.size])]
    assert result == folded.as_tuples()
    assert result == _byte_runs(covered)
