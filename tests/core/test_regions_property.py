"""Property-based tests of the byte-region algebra (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.core.regions import Region, RegionList, clip_runs
from tests._regions import canonical_runs, regions_minus, regions_union


regions = st.builds(Region,
                    offset=st.integers(0, 2000),
                    size=st.integers(0, 500))

region_lists = st.lists(st.tuples(st.integers(0, 2000), st.integers(0, 300)),
                        min_size=0, max_size=12).map(RegionList.from_tuples)


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


@given(region_lists, region_lists)
def test_subtract_union_partition(a, b):
    """a = (a - b) ∪ (a ∩ b), and the two parts are disjoint."""
    difference = regions_minus(a, b)
    intersection = a.intersection(b)
    assert not difference.overlaps(intersection)
    assert regions_union(difference, intersection) == a.normalized()
    assert difference.covered_bytes() + intersection.covered_bytes() == \
        a.covered_bytes()


@given(region_lists)
def test_gaps_complement_inside_extent(rl):
    norm = rl.normalized()
    extent = norm.covering_extent()
    gaps = norm.gaps()
    assert not gaps.overlaps(norm)
    assert gaps.covered_bytes() + norm.covered_bytes() == extent.size


@given(regions, st.integers(1, 64))
def test_chunk_aligned_pieces_partition_region(region, chunk_size):
    pieces = region.chunk_aligned_pieces(chunk_size)
    assert sum(piece.size for piece in pieces) == region.size
    # pieces are in order, contiguous, and never cross a chunk boundary
    cursor = region.offset
    for piece in pieces:
        assert piece.offset == cursor
        assert piece.offset // chunk_size == (piece.end - 1) // chunk_size
        cursor = piece.end


@given(region_lists, st.integers(-500, 500))
def test_shift_preserves_structure(rl, delta):
    if any(region.offset + delta < 0 for region in rl):
        return
    shifted = rl.shift(delta)
    assert shifted.total_bytes() == rl.total_bytes()
    assert [r.size for r in shifted] == [r.size for r in rl]


@given(region_lists, regions)
def test_clip_runs_stay_inside_bounds(rl, bounds):
    clipped = RegionList.from_tuples(
        (start, end - start) for start, end in clip_runs(
            canonical_runs(rl.as_tuples()), bounds.offset, bounds.end))
    for region in clipped:
        assert bounds.contains_region(region)
    assert clipped.covered_bytes() == rl.normalized().intersection(
        RegionList([bounds])).covered_bytes()
