"""Unit tests for the striping layout."""

import random

import pytest

from repro.core.regions import canonical_runs, runs_overlap
from repro.errors import InvalidRegion
from repro.posixfs.layout import StripeLayout
from tests._regions import RegionList


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidRegion):
        StripeLayout(stripe_size=0, ost_count=2)
    with pytest.raises(InvalidRegion):
        StripeLayout(stripe_size=64, ost_count=0)


def test_single_stripe_region():
    layout = StripeLayout(stripe_size=100, ost_count=4)
    pieces = layout.map_extent(10, 50)
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.ost_index == 0
    assert piece.object_offset == 10
    assert piece.length == 50
    assert piece.file_offset == 10


def test_round_robin_across_osts():
    layout = StripeLayout(stripe_size=100, ost_count=2)
    pieces = layout.map_extent(0, 400)
    assert [piece.ost_index for piece in pieces] == [0, 1, 0, 1]
    # second visit of OST 0 goes to the next object slot
    assert pieces[2].object_offset == 100
    assert pieces[3].object_offset == 100


def test_unaligned_region_splits_on_stripe_boundaries():
    layout = StripeLayout(stripe_size=100, ost_count=3)
    pieces = layout.map_extent(250, 200)
    assert [(p.ost_index, p.object_offset, p.length) for p in pieces] == [
        (2, 50, 50), (0, 100, 100), (1, 100, 50)]
    assert sum(piece.length for piece in pieces) == 200


def test_empty_extent_maps_to_no_piece():
    assert StripeLayout(stripe_size=100, ost_count=2).map_extent(50, 0) == []


def test_bytes_never_lost_or_duplicated():
    layout = StripeLayout(stripe_size=64, ost_count=3)
    pieces = layout.map_extent(17, 1000)
    covered = RegionList([(p.file_offset, p.length) for p in pieces]).normalized()
    assert covered.as_tuples() == [(17, 1000)]


def test_contiguous_range_is_one_object_extent_per_ost():
    layout = StripeLayout(stripe_size=100, ost_count=3)
    # stripes 2..9: OST 2 gets stripes 2, 5, 8; OST 0 gets 3, 6, 9; OST 1: 4, 7
    assert layout.object_extents([(250, 720)]) == {
        2: [(50, 300)], 0: [(100, 370)], 1: [(100, 300)]}
    assert layout.object_extents([(5, 0)]) == {}


def test_object_extents_merge_what_is_adjacent_on_the_ost():
    layout = StripeLayout(stripe_size=100, ost_count=2)
    # end of stripe 0 and start of stripe 2 are neighbours in OST 0's object
    assert layout.object_extents([(200, 10), (90, 10)]) == {0: [(90, 110)]}


@pytest.mark.parametrize("seed", range(30))
def test_object_extents_cover_exactly_the_mapped_pieces(seed):
    """The closed form against the stripe-by-stripe map, and the property the
    lock servers rely on: file ranges overlap iff object extents overlap on
    some OST."""
    rng = random.Random(seed)
    layout = StripeLayout(stripe_size=rng.randint(1, 40),
                          ost_count=rng.randint(1, 5))

    def draw():
        return [(rng.randrange(400), rng.randrange(0, 150))
                for _ in range(rng.randint(1, 4))]

    def by_pieces(extents):
        per_ost = {}
        for offset, size in extents:
            for piece in layout.map_extent(offset, size):
                per_ost.setdefault(piece.ost_index, []).append(
                    (piece.object_offset, piece.length))
        return {ost: canonical_runs(pieces)
                for ost, pieces in per_ost.items()}

    mine, theirs = draw(), draw()
    extents, other = layout.object_extents(mine), layout.object_extents(theirs)
    assert extents == by_pieces(mine) and other == by_pieces(theirs)
    assert RegionList(mine).overlaps(RegionList(theirs)) == any(
        runs_overlap(extents[ost], other[ost])
        for ost in extents if ost in other)
