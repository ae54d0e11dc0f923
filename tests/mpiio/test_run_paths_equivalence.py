"""The collective path's run helpers against the Region-based code they
replace.

* :func:`~repro.mpiio.adio.collective.join_pieces` must build exactly the
  runs the Region-based :func:`coalesced` builds — later pieces win on
  overlapping bytes, adjacent pieces merge, empty pieces vanish — and write
  the bytes their serial application writes;
* a view's flattened runs (``build_read_vector``, ``flatten_view_access``)
  must equal the Region flattening they replaced, kept here as
  :func:`region_flatten`, for every filetype kind, with a displacement and
  an etype offset that starts mid-tile.
"""

import random
from bisect import bisect_right
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.listio import IOVector
from repro.core.regions import Region, RegionList
from repro.mpi.datatypes import BYTE, INT, Indexed, Subarray, Vector
from repro.mpiio.adio.collective import join_pieces
from repro.mpiio.flatten import (FileView, build_read_vector,
                                 build_write_vector, flatten_view_access)

# ----------------------------------------------------------------------
# the write-side piece join
# ----------------------------------------------------------------------
def coalesced(vector: IOVector) -> IOVector:
    """The Region-based piece join :func:`join_pieces` replaced (reference):
    one write request per maximal contiguous run of touched bytes — the
    runs are ``region_list().normalized()``, gaps stay gaps — with later
    requests winning on overlapping bytes, as :meth:`IOVector.apply_to`."""
    runs = vector.region_list().normalized()
    starts = [run.offset for run in runs]
    buffers = [bytearray(run.size) for run in runs]
    for req in vector:
        if req.size == 0:
            continue
        # the runs are the union of the requests, so each request lies
        # inside exactly one of them
        index = bisect_right(starts, req.offset) - 1
        start = req.offset - starts[index]
        buffers[index][start:start + req.size] = req.data
    return IOVector.for_write(list(zip(starts, buffers)))


pieces = st.lists(
    st.tuples(st.integers(0, 120),
              st.integers(0, 24).flatmap(
                  lambda size: st.binary(min_size=size, max_size=size))),
    max_size=24)


@settings(max_examples=300, deadline=None)
@given(pieces)
def test_join_pieces_is_the_coalesced_write_vector(pairs):
    reference = coalesced(IOVector.for_write(pairs)) if pairs else IOVector()
    assert join_pieces(pairs) == [(request.offset, request.data)
                                  for request in reference]


def test_join_pieces_cases():
    # adjacent pieces join, a gap splits, empty pieces vanish
    assert join_pieces([(4, b"cd"), (0, b"ab"), (2, b""), (6, b"ef"),
                        (10, b"x"), (20, b"")]) == [(0, b"ab"), (4, b"cdef"),
                                                    (10, b"x")]
    # on overlapping bytes the later piece wins, wherever it sorts
    assert join_pieces([(2, b"XXXX"), (0, b"aaa"), (5, b"b")]) == [
        (0, b"aaaXXb")]
    assert join_pieces([(0, b"aaaa"), (0, b"bb")]) == [(0, b"bbaa")]
    assert join_pieces([]) == []


def test_join_pieces_of_only_empty_pieces():
    assert join_pieces([(5, b""), (9, b"")]) == []


@pytest.mark.parametrize("seed", range(40))
def test_join_pieces_equals_serial_application(seed):
    """Overlaps, gaps, adjacency and zero-size pieces: the joined runs
    write the same bytes as the pieces in order, they are the normalized
    regions, and no byte outside them is touched."""
    rng = random.Random(seed)
    span = 4096
    pairs = []
    for _index in range(rng.randint(1, 40)):
        size = rng.choice([0, 0, 1, 7, 64, 300, rng.randint(1, 600)])
        offset = rng.randrange(span - size)
        if pairs and rng.random() < 0.3:    # force exact adjacency
            offset = min(pairs[-1][0] + len(pairs[-1][1]), span - size)
        pairs.append((offset, bytes(rng.randrange(1, 256)
                                    for _byte in range(size))))
    vector = IOVector.for_write(pairs)
    merged = IOVector.for_write(join_pieces(pairs))

    regions = vector.region_list().normalized()
    assert merged.region_list() == regions
    assert merged.region_list().is_normalized()

    expected = bytearray(span)
    vector.apply_to(expected)
    # applied onto a marker-filled canvas: written bytes equal the
    # serial application, every other byte still holds the marker
    canvas = bytearray(b"\xee" * span)
    merged.apply_to(canvas)
    assert len(canvas) == span
    covered = bytearray(span)
    for region in regions:
        covered[region.offset:region.end] = b"\x01" * region.size
    for index in range(span):
        assert canvas[index] == (expected[index] if covered[index]
                                 else 0xEE), index


# ----------------------------------------------------------------------
# the view runs
# ----------------------------------------------------------------------
def region_flatten(view: FileView, offset_etypes: int,
                   nbytes: int) -> RegionList:
    """The Region-based view flattening the runs replaced (reference)."""
    skip_bytes = offset_etypes * view.etype.size
    tile_regions = view.filetype.flatten()
    tile_index = skip_bytes // view.filetype.size
    skip_in_tile = skip_bytes % view.filetype.size
    regions: List[Region] = []
    remaining = nbytes
    while remaining > 0:
        tile_origin = view.displacement + tile_index * view.filetype.extent
        for region in tile_regions:
            if remaining <= 0:
                break
            if skip_in_tile >= region.size:
                skip_in_tile -= region.size
                continue
            take = min(region.size - skip_in_tile, remaining)
            regions.append(Region(tile_origin + region.offset + skip_in_tile,
                                  take))
            remaining -= take
            skip_in_tile = 0
        tile_index += 1
        skip_in_tile = 0
    return RegionList(regions).normalized()


@st.composite
def vector_types(draw):
    blocklength = draw(st.integers(1, 5))
    return Vector(draw(st.integers(1, 5)), blocklength,
                  draw(st.integers(blocklength, blocklength + 4)), base=INT)


@st.composite
def indexed_types(draw):
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    displacements, cursor = [], 0
    for length in lengths:
        cursor += draw(st.integers(0, 3))
        displacements.append(cursor)
        cursor += length
    return Indexed(lengths, displacements, base=INT)


@st.composite
def subarray_types(draw):
    ndims = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 5), min_size=ndims, max_size=ndims))
    subsizes = [draw(st.integers(1, size)) for size in sizes]
    starts = [draw(st.integers(0, size - subsize))
              for size, subsize in zip(sizes, subsizes)]
    return Subarray(sizes, subsizes, starts, base=INT)


@settings(max_examples=300, deadline=None)
@given(filetype=st.one_of(vector_types(), indexed_types(), subarray_types()),
       displacement=st.integers(0, 40), etype=st.sampled_from([BYTE, INT]),
       data=st.data())
def test_view_runs_are_the_region_flattening(filetype, displacement, etype,
                                             data):
    # an etype offset anywhere, so that the access starts mid-tile
    offset = data.draw(st.integers(0, 3 * filetype.size // etype.size))
    nbytes = data.draw(st.integers(0, 3 * filetype.size))
    view = FileView(displacement=displacement, etype=etype, filetype=filetype)
    expected = region_flatten(view, offset, nbytes)

    assert flatten_view_access(view, offset, nbytes) == expected
    assert [(request.offset, request.size)
            for request in build_read_vector(view, offset, nbytes)] \
        == expected.as_tuples()
    payload = bytes(index % 251 for index in range(nbytes))
    written = build_write_vector(view, offset, payload)
    assert [(request.offset, request.size) for request in written] \
        == expected.as_tuples()
    assert b"".join(request.data for request in written) == payload


def test_a_repeated_read_access_reuses_its_vector():
    view = FileView(displacement=8, filetype=Vector(4, 2, 8, BYTE))
    first = build_read_vector(view, 2, 12)
    assert build_read_vector(view, 2, 12) is first
    assert build_read_vector(view, 0, 12) is not first
    assert len(build_read_vector(view, 0, 0)) == 0
