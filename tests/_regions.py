"""Set algebra over byte regions that only the tests need.

The suites check coverage and holes with a union and a difference of
region sets; no code under ``src/`` computes either, so they live here,
over the public :class:`~repro.core.regions.RegionList` API.  Import from
here in tests.
"""

from typing import List, Tuple

from repro.core.regions import Region, RegionList


def region_minus(region: Region, cut: Region) -> Tuple[Region, ...]:
    """The parts of ``region`` not covered by ``cut`` (0, 1 or 2 pieces)."""
    if not region.overlaps(cut):
        return (region,) if not region.empty else ()
    pieces: List[Region] = []
    if region.offset < cut.offset:
        pieces.append(Region(region.offset, cut.offset - region.offset))
    if cut.end < region.end:
        pieces.append(Region(cut.end, region.end - cut.end))
    return tuple(pieces)


def regions_union(a: RegionList, b: RegionList) -> RegionList:
    """Normalized union of both region sets."""
    return RegionList([*a, *b]).normalized()


def regions_minus(a: RegionList, b: RegionList) -> RegionList:
    """Normalized set of bytes in ``a`` but not in ``b``: one sweep of each
    kept region over the cuts that can reach it."""
    cuts = b.normalized().regions
    kept: List[Region] = []
    first = 0
    for region in a.normalized():
        cursor, end = region.offset, region.end
        while first < len(cuts) and cuts[first].end <= cursor:
            first += 1
        for cut in cuts[first:]:
            if cut.offset >= end:
                break
            if cut.offset > cursor:
                kept.append(Region(cursor, cut.offset - cursor))
            cursor = max(cursor, cut.end)
        if cursor < end:
            kept.append(Region(cursor, end - cursor))
    return RegionList(kept).normalized()
