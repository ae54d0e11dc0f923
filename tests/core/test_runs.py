"""The run helpers against the RegionList algebra they stand in for.

:func:`canonical_runs`, :func:`clip_runs`, :func:`coalesce_runs` and
:func:`runs_overlap` carry the collective exchange, the lock manager and the
read walk on plain ``(start, end)`` integer pairs; each must give exactly
what :meth:`RegionList.normalized`, :func:`clip`, :func:`union_all` and
:meth:`RegionList.overlaps` give.  The last two are the Region-based forms the run
helpers replaced, kept here as references.
"""

from hypothesis import given, settings, strategies as st

from repro.core.regions import (Region, canonical_runs, clip_runs,
                                coalesce_runs, runs_overlap)
from tests._regions import RegionList, region_intersect

extents = st.lists(st.tuples(st.integers(0, 200), st.integers(0, 40)),
                   max_size=30)


def as_runs(regions: RegionList):
    return [(region.offset, region.end) for region in regions]


def clip(regions: RegionList, bounds: Region) -> RegionList:
    """Regions clipped to ``bounds`` (pieces outside are dropped)."""
    return RegionList(piece for piece in (region_intersect(region, bounds)
                                          for region in regions)
                      if piece.size)


def union_all(lists) -> RegionList:
    """Normalized union of many region lists."""
    return RegionList(region for lst in lists for region in lst).normalized()


@settings(max_examples=200, deadline=None)
@given(extents)
def test_canonical_runs_are_the_normalized_list(pairs):
    assert canonical_runs(pairs) == as_runs(
        RegionList(pairs).normalized())


@settings(max_examples=200, deadline=None)
@given(extents, st.integers(0, 260), st.integers(0, 80))
def test_clip_runs_is_region_list_clip(pairs, start, size):
    canonical = RegionList(pairs).normalized()
    clipped = clip_runs(canonical_runs(pairs), start, start + size)
    assert clipped == as_runs(clip(canonical, Region(start, size)))
    # clipping keeps the runs canonical
    assert clipped == coalesce_runs(list(clipped))


@settings(max_examples=200, deadline=None)
@given(extents, extents)
def test_runs_overlap_is_region_list_overlaps(a, b):
    assert runs_overlap(canonical_runs(a), canonical_runs(b)) == \
        RegionList(a).overlaps(RegionList(b))


@settings(max_examples=200, deadline=None)
@given(st.lists(extents, max_size=6))
def test_coalesced_runs_are_the_union_of_all_lists(lists):
    union = coalesce_runs([run for pairs in lists
                           for run in canonical_runs(pairs)])
    assert union == as_runs(union_all(
        [RegionList(pairs).normalized() for pairs in lists]))


def test_clip_runs_edges():
    runs = [(0, 4), (8, 12), (20, 30)]
    assert clip_runs(runs, 4, 8) == []
    assert clip_runs(runs, 3, 9) == [(3, 4), (8, 9)]
    assert clip_runs(runs, 10, 10) == []
    assert clip_runs(runs, 0, 100) == runs
    assert clip_runs([], 0, 10) == []
