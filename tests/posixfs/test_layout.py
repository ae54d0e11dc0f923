"""Unit tests for the striping layout."""

import random

import pytest

from repro.core.regions import Region, RegionList
from repro.errors import InvalidRegion
from repro.posixfs.layout import StripeLayout


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidRegion):
        StripeLayout(stripe_size=0, ost_count=2)
    with pytest.raises(InvalidRegion):
        StripeLayout(stripe_size=64, ost_count=0)


def test_single_stripe_region():
    layout = StripeLayout(stripe_size=100, ost_count=4)
    pieces = layout.map_region(Region(10, 50))
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.ost_index == 0
    assert piece.object_offset == 10
    assert piece.length == 50
    assert piece.file_offset == 10


def test_round_robin_across_osts():
    layout = StripeLayout(stripe_size=100, ost_count=2)
    pieces = layout.map_region(Region(0, 400))
    assert [piece.ost_index for piece in pieces] == [0, 1, 0, 1]
    # second visit of OST 0 goes to the next object slot
    assert pieces[2].object_offset == 100
    assert pieces[3].object_offset == 100


def test_unaligned_region_splits_on_stripe_boundaries():
    layout = StripeLayout(stripe_size=100, ost_count=3)
    pieces = layout.map_region(Region(250, 200))
    assert [(p.ost_index, p.object_offset, p.length) for p in pieces] == [
        (2, 50, 50), (0, 100, 100), (1, 100, 50)]
    assert sum(piece.length for piece in pieces) == 200


def test_map_regions_preserves_order():
    layout = StripeLayout(stripe_size=100, ost_count=2)
    pieces = layout.map_regions(RegionList([(300, 10), (0, 10)]))
    assert [piece.file_offset for piece in pieces] == [300, 0]


def test_osts_for_region_and_regions():
    layout = StripeLayout(stripe_size=100, ost_count=4)
    assert layout.osts_for_region(Region(0, 250)) == [0, 1, 2]
    assert layout.osts_for_regions(RegionList([(0, 50), (300, 50)])) == [0, 3]


def test_bytes_never_lost_or_duplicated():
    layout = StripeLayout(stripe_size=64, ost_count=3)
    region = Region(17, 1000)
    pieces = layout.map_region(region)
    covered = RegionList([(p.file_offset, p.length) for p in pieces]).normalized()
    assert covered.as_tuples() == [(17, 1000)]


def test_contiguous_range_is_one_object_extent_per_ost():
    layout = StripeLayout(stripe_size=100, ost_count=3)
    # stripes 2..9: OST 2 gets stripes 2, 5, 8; OST 0 gets 3, 6, 9; OST 1: 4, 7
    extents = layout.object_extents([Region(250, 720)])
    assert {ost: extent.as_tuples() for ost, extent in extents.items()} == {
        2: [(50, 250)], 0: [(100, 270)], 1: [(100, 200)]}
    assert layout.object_extents([Region(5, 0)]) == {}


def test_object_extents_merge_what_is_adjacent_on_the_ost():
    layout = StripeLayout(stripe_size=100, ost_count=2)
    # end of stripe 0 and start of stripe 2 are neighbours in OST 0's object
    extents = layout.object_extents(RegionList([(200, 10), (90, 10)]))
    assert extents[0].as_tuples() == [(90, 20)] and list(extents) == [0]


@pytest.mark.parametrize("seed", range(30))
def test_object_extents_cover_exactly_the_mapped_pieces(seed):
    """The closed form against the stripe-by-stripe map, and the property the
    lock servers rely on: file ranges overlap iff object extents overlap on
    some OST."""
    rng = random.Random(seed)
    layout = StripeLayout(stripe_size=rng.randint(1, 40),
                          ost_count=rng.randint(1, 5))

    def draw():
        return RegionList([(rng.randrange(400), rng.randrange(0, 150))
                           for _ in range(rng.randint(1, 4))])

    def by_pieces(regions):
        per_ost = {}
        for piece in layout.map_regions(regions):
            per_ost.setdefault(piece.ost_index, []).append(
                (piece.object_offset, piece.length))
        return {ost: RegionList(extents).normalized()
                for ost, extents in per_ost.items()}

    mine, theirs = draw(), draw()
    extents, other = layout.object_extents(mine), layout.object_extents(theirs)
    assert extents == by_pieces(mine) and other == by_pieces(theirs)
    assert mine.overlaps(theirs) == any(
        extents[ost].overlaps(other[ost]) for ost in extents if ost in other)
