"""Property-based tests of the byte-region algebra (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.core.regions import Region, clip_runs, runs_overlap
from tests._regions import (RegionList, canonical_runs, region_pieces,
                            regions_minus, regions_union)


regions = st.builds(Region,
                    offset=st.integers(0, 2000),
                    size=st.integers(0, 500))

region_lists = st.lists(st.tuples(st.integers(0, 2000), st.integers(0, 300)),
                        min_size=0, max_size=12).map(RegionList)


@given(region_lists)
def test_normalization_is_idempotent_and_canonical(rl):
    norm = rl.normalized()
    assert norm.is_normalized()
    assert norm.normalized() == norm
    assert norm.covered_bytes() == rl.covered_bytes()


@given(region_lists, region_lists)
def test_union_covers_both_operands(a, b):
    union = regions_union(a, b)
    assert union.is_normalized()
    assert union.covered_bytes() >= max(a.covered_bytes(), b.covered_bytes())
    assert regions_minus(a, union).covered_bytes() == 0
    assert regions_minus(b, union).covered_bytes() == 0


@given(region_lists, region_lists)
def test_intersection_is_symmetric_and_contained(a, b):
    left = a.intersection(b)
    right = b.intersection(a)
    assert left == right
    assert regions_minus(left, a).covered_bytes() == 0
    assert regions_minus(left, b).covered_bytes() == 0
    assert a.overlaps(b) == (left.covered_bytes() > 0)
    assert runs_overlap(canonical_runs(a.as_tuples()),
                        canonical_runs(b.as_tuples())) == a.overlaps(b)


@given(region_lists, region_lists)
def test_subtract_union_partition(a, b):
    """a = (a - b) ∪ (a ∩ b), and the two parts are disjoint."""
    difference = regions_minus(a, b)
    intersection = a.intersection(b)
    assert not difference.overlaps(intersection)
    assert regions_union(difference, intersection) == a.normalized()
    assert difference.covered_bytes() + intersection.covered_bytes() == \
        a.covered_bytes()


@given(regions, st.integers(1, 64))
def test_chunk_aligned_pieces_partition_region(region, chunk_size):
    pieces = region_pieces(region, chunk_size)
    assert sum(piece.size for piece in pieces) == region.size
    # pieces are in order, contiguous, and never cross a chunk boundary
    cursor = region.offset
    for piece in pieces:
        assert piece.offset == cursor
        assert piece.offset // chunk_size == (piece.end - 1) // chunk_size
        cursor = piece.end


@given(region_lists, regions)
def test_clip_runs_stay_inside_bounds(rl, bounds):
    clipped = RegionList(
        (start, end - start) for start, end in clip_runs(
            canonical_runs(rl.as_tuples()), bounds.offset, bounds.end))
    for region in clipped:
        assert bounds.offset <= region.offset and region.end <= bounds.end
    assert clipped.covered_bytes() == rl.normalized().intersection(
        RegionList([bounds])).covered_bytes()
