"""Equivalence tests for the rewritten (linear-merge) RegionList algebra.

The old implementation subtracted every cut from every kept piece (O(n·m))
and re-normalized after every operation; the rewrite produces canonical
results in one pass.  These tests pin the new code to the old semantics two
ways: against a literal re-implementation of the old quadratic algorithms,
and against a byte-set model that is obviously correct.
"""

from hypothesis import given, settings, strategies as st

from repro.core.regions import (Region, RegionList, canonical_runs, clip_runs,
                                coalesce_runs)
from tests._regions import region_minus, regions_minus, regions_union

UNIVERSE = 512  # keep the byte-set model small and fast


# ----------------------------------------------------------------------
# reference implementations (the pre-rewrite semantics, verbatim)
# ----------------------------------------------------------------------
def reference_normalized(regions):
    non_empty = sorted((r for r in regions if not r.empty),
                       key=lambda r: (r.offset, r.end))
    if not non_empty:
        return []
    merged = [non_empty[0]]
    for region in non_empty[1:]:
        last = merged[-1]
        if region.offset <= last.end:
            merged[-1] = Region(last.offset, max(last.end, region.end) - last.offset)
        else:
            merged.append(region)
    return merged


def reference_subtract(a_regions, b_regions):
    a = reference_normalized(a_regions)
    b = reference_normalized(b_regions)
    result = []
    for region in a:
        pieces = [region]
        for cut in b:
            next_pieces = []
            for piece in pieces:
                next_pieces.extend(region_minus(piece, cut))
            pieces = next_pieces
            if not pieces:
                break
        result.extend(pieces)
    return reference_normalized(result)


def reference_union(a_regions, b_regions):
    return reference_normalized(list(a_regions) + list(b_regions))


def as_byte_set(regions):
    covered = set()
    for region in regions:
        covered.update(range(region.offset, region.end))
    return covered


def byte_set_of(region_list):
    return as_byte_set(region_list.normalized())


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def region_lists(max_size):
    return st.lists(
        st.tuples(st.integers(0, UNIVERSE - 1), st.integers(0, 64)),
        min_size=0, max_size=max_size,
    ).map(lambda pairs: RegionList([Region(o, s) for o, s in pairs]))


regions_strategy = region_lists(12)
#: long enough to exercise normalization and many-list unions at scale
many_regions_strategy = region_lists(200)


@settings(max_examples=200, deadline=None)
@given(a=regions_strategy, b=regions_strategy)
def test_subtract_matches_old_reference_and_byte_model(a, b):
    new = regions_minus(a, b)
    old = reference_subtract(a.regions, b.regions)
    assert list(new) == old
    assert byte_set_of(new) == byte_set_of(a) - byte_set_of(b)
    assert new.is_normalized()


@settings(max_examples=200, deadline=None)
@given(a=regions_strategy, b=regions_strategy)
def test_union_matches_old_reference_and_byte_model(a, b):
    new = regions_union(a, b)
    assert list(new) == reference_union(a.regions, b.regions)
    assert byte_set_of(new) == byte_set_of(a) | byte_set_of(b)
    assert new.is_normalized()


@settings(max_examples=200, deadline=None)
@given(a=regions_strategy, b=regions_strategy)
def test_intersection_matches_byte_model(a, b):
    new = a.intersection(b)
    assert byte_set_of(new) == byte_set_of(a) & byte_set_of(b)
    assert new.is_normalized()


@settings(max_examples=200, deadline=None)
@given(a=regions_strategy, b=regions_strategy)
def test_overlaps_matches_byte_model(a, b):
    assert a.overlaps(b) == bool(byte_set_of(a) & byte_set_of(b))


@settings(max_examples=100, deadline=None)
@given(a=many_regions_strategy)
def test_normalized_matches_old_reference_and_is_memoized(a):
    norm = a.normalized()
    assert list(norm) == reference_normalized(a.regions)
    assert byte_set_of(norm) == as_byte_set(a.regions)
    assert norm.is_normalized()
    # memoized: repeated calls return the identical instance,
    # and normalizing a canonical list is the identity
    assert a.normalized() is norm
    assert norm.normalized() is norm


@settings(max_examples=100, deadline=None)
@given(lists=st.lists(many_regions_strategy, min_size=1, max_size=8))
def test_coalesce_runs_matches_old_reference_and_byte_model(lists):
    every_region = [region for lst in lists for region in lst]
    new = RegionList.from_tuples(
        (start, end - start) for start, end in coalesce_runs(
            [(r.offset, r.end) for r in every_region if r.size]))
    assert list(new) == reference_normalized(every_region)
    assert byte_set_of(new) == as_byte_set(every_region)
    assert new.is_normalized()


@settings(max_examples=100, deadline=None)
@given(a=regions_strategy, bounds=st.tuples(st.integers(0, UNIVERSE - 1),
                                            st.integers(0, 128)))
def test_clip_runs_matches_byte_model(a, bounds):
    region = Region(*bounds)
    clipped = RegionList.from_tuples(
        (start, end - start) for start, end in clip_runs(
            canonical_runs(a.as_tuples()), region.offset, region.end))
    assert byte_set_of(clipped) == byte_set_of(a) & as_byte_set([region])
    assert clipped.is_normalized()
