"""The integer run forms of an access against independent references.

* :meth:`Datatype.runs` must be MPI's type map (:func:`type_map`, built
  from the constructors' definitions and sharing no rule with the code
  under test) for every constructor — an ``Indexed`` with unsorted,
  touching and overlapping displacements, a ``Subarray`` over a base with
  gaps and a non-BYTE base included — its run total must be the
  datatype's ``size`` unless blocks overlap, and :meth:`Datatype.flatten`
  must be the same pairs as :class:`~repro.core.regions.Region` records;
* a view's access over whole tiles must be the type map tiled;
* :meth:`IOVector.from_runs` must build exactly the vector
  :meth:`IOVector.for_write` (or ``for_read``) builds from the same pairs;
* a view's memoized description must be :func:`encode_extents` of its
  vector's requests, priced alike by the opening exchange;
* the collective's description-level derivations — the hull, each rank's
  canonical runs and the ranks a stripe's resolver walks — must agree with
  the expanded extents they stand for.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

import pytest

from repro.core.listio import IOVector, encode_extents
from repro.core.regions import canonical_runs, clip_runs
from repro.errors import InvalidRegion
from repro.mpi.datatypes import (BYTE, DOUBLE, INT, BasicType, Contiguous,
                                 Indexed, Subarray, Vector)
from repro.mpiio.adio.collective import (_description_runs, _opening_bytes,
                                         _scan_gather, _stripe_ranks,
                                         partition_file_domain)
from repro.mpiio.flatten import (FileView, build_read_vector,
                                 build_write_vector, flatten_view_access)


# ----------------------------------------------------------------------
# datatypes
# ----------------------------------------------------------------------
def type_map(datatype):
    """MPI's type map of one instance: a ``(displacement, width)`` entry per
    basic element, in type-map order, duplicates kept.

    Each constructor's map is its elements' displacements (in units of the
    base's extent, as the MPI standard defines them) times a copy of the
    base's own map; a subarray's elements are every index tuple of its
    box, at their row-major position in the full array.  Extents are the
    datatypes' own (lower bound 0).
    """
    if isinstance(datatype, BasicType):
        return [(0, datatype.width)]
    if isinstance(datatype, Contiguous):
        elements = range(datatype.count)
    elif isinstance(datatype, Vector):
        elements = [block * datatype.stride + index
                    for block in range(datatype.count)
                    for index in range(datatype.blocklength)]
    elif isinstance(datatype, Indexed):
        elements = [displacement + index for length, displacement
                    in zip(datatype.blocklengths, datatype.displacements)
                    for index in range(length)]
    else:
        assert isinstance(datatype, Subarray)
        elements = []
        for box_index in product(*[range(start, start + subsize)
                                   for start, subsize in
                                   zip(datatype.starts, datatype.subsizes)]):
            element = 0
            for index, size in zip(box_index, datatype.sizes):
                element = element * size + index
            elements.append(element)
    unit = datatype.base.extent
    base = type_map(datatype.base)
    return [(element * unit + displacement, width)
            for element in elements for displacement, width in base]


def byte_runs(entries):
    """The bytes a type map's entries cover, as maximal ``(offset, size)``
    runs, from a byte set."""
    covered = sorted({byte for displacement, width in entries
                      for byte in range(displacement, displacement + width)})
    runs = []
    for byte in covered:
        if runs and sum(runs[-1]) == byte:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((byte, 1))
    return runs


def tiled_map(datatype, count, origin=0):
    """``count`` instances' type maps back to back from ``origin``."""
    return [(origin + index * datatype.extent + displacement, width)
            for index in range(count)
            for displacement, width in type_map(datatype)]


basic = st.sampled_from([BYTE, INT, DOUBLE])


@st.composite
def small_bases(draw):
    """A base type: a basic one, or a small gappy or dense composite."""
    base = draw(basic)
    kind = draw(st.sampled_from(["basic", "contiguous", "vector"]))
    if kind == "contiguous":
        return Contiguous(draw(st.integers(0, 3)), base)
    if kind == "vector":
        blocklength = draw(st.integers(0, 3))
        return Vector(draw(st.integers(0, 3)), blocklength,
                      draw(st.integers(blocklength, blocklength + 3)), base)
    return base


@st.composite
def indexed_types(draw):
    """Indexed blocks in any order: unsorted, touching, overlapping."""
    count = draw(st.integers(0, 8))
    lengths = draw(st.lists(st.integers(0, 5), min_size=count,
                            max_size=count))
    displacements = draw(st.lists(st.integers(0, 24), min_size=count,
                                  max_size=count))
    if count and draw(st.booleans()):
        # one block starting exactly where another ends
        lengths.append(draw(st.integers(1, 4)))
        displacements.append(displacements[0] + lengths[0])
    return Indexed(lengths, displacements, draw(small_bases()))


@st.composite
def subarray_types(draw):
    ndims = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 5), min_size=ndims, max_size=ndims))
    subsizes, starts = [], []
    for size in sizes:
        subsize = draw(st.integers(0, size))
        subsizes.append(subsize)
        starts.append(draw(st.integers(0, size - subsize)))
    return Subarray(sizes, subsizes, starts, draw(small_bases()))


@st.composite
def vector_types(draw):
    blocklength = draw(st.integers(0, 4))
    return Vector(draw(st.integers(0, 5)), blocklength,
                  draw(st.integers(blocklength, blocklength + 6)),
                  draw(small_bases()))


datatypes = st.one_of(
    basic, small_bases(),
    st.builds(Contiguous, st.integers(0, 5), small_bases()),
    vector_types(), indexed_types(), subarray_types())


@settings(max_examples=400, deadline=None)
@given(datatypes)
def test_runs_are_the_type_map(datatype):
    runs = datatype.runs()
    assert list(runs) == byte_runs(type_map(datatype))
    assert [(region.offset, region.size) for region in datatype.flatten()] \
        == list(runs)
    assert datatype.runs() is runs


@settings(max_examples=400, deadline=None)
@given(datatypes)
def test_run_total_is_the_size_unless_blocks_overlap(datatype):
    entries = type_map(datatype)
    assert datatype.size == sum(width for _displacement, width in entries)
    distinct = sum(size for _offset, size in byte_runs(entries))
    total = sum(size for _offset, size in datatype.runs())
    if distinct == datatype.size:  # no two blocks share a byte
        assert total == datatype.size
    else:
        assert total <= datatype.size


@settings(max_examples=200, deadline=None)
@given(datatypes, st.integers(0, 4), st.integers(0, 50))
def test_tiled_runs_are_the_type_map_tiled(datatype, count, origin):
    assert list(datatype.tiled_runs(count, origin)) == \
        byte_runs(tiled_map(datatype, count, origin))


@settings(max_examples=200, deadline=None)
@given(datatypes.filter(lambda datatype: datatype.size > 0),
       st.integers(1, 3), st.integers(0, 40))
def test_whole_tiles_of_a_view_are_the_type_map_tiled(filetype, count,
                                                      displacement):
    if sum(size for _offset, size in byte_runs(type_map(filetype))) \
            != filetype.size:
        return  # blocks share bytes: the data fills no one type map
    view = FileView(displacement=displacement, etype=BYTE, filetype=filetype)
    assert list(flatten_view_access(view, 0, count * filetype.size)) == \
        byte_runs(tiled_map(filetype, count, displacement))


def test_subarray_over_a_gappy_base_cases():
    # the base's gap byte stays a gap: MPI's type map, not whole rows
    gappy = Vector(2, 1, 2, BYTE)
    assert Subarray((1,), (1,), (0,), gappy).runs() == ((0, 1), (2, 1))
    assert Subarray((4,), (2,), (1,), gappy).runs() == \
        ((3, 1), (5, 2), (8, 1))
    view = FileView(filetype=Subarray((4,), (2,), (1,), gappy))
    assert list(flatten_view_access(view, 0, 8)) == \
        [(3, 1), (5, 2), (8, 1), (15, 1), (17, 2), (20, 1)]


def test_indexed_run_form_cases():
    # unsorted, touching and overlapping blocks of a non-BYTE base
    assert Indexed([2, 1, 3, 1], [6, 0, 1, 7], INT).runs() == \
        ((0, 16), (24, 8))
    assert Indexed([1, 0, 2], [5, 3, 0], DOUBLE).runs() == \
        ((0, 16), (40, 8))


# ----------------------------------------------------------------------
# vectors built from runs
# ----------------------------------------------------------------------
runs_lists = st.lists(st.tuples(st.integers(0, 200), st.integers(1, 16)),
                      min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(runs_lists, st.sampled_from([bytes, bytearray]))
def test_write_vector_from_runs_is_the_for_write_vector(runs, kind):
    total = sum(size for _offset, size in runs)
    payload = kind(index % 251 for index in range(total))
    pairs, cursor = [], 0
    for offset, size in runs:
        pairs.append((offset, payload[cursor:cursor + size]))
        cursor += size
    built = IOVector.from_runs(runs, payload)
    assert built == IOVector.for_write(pairs)
    assert built.total_bytes() == total
    assert built.description() == encode_extents(runs)
    # the payload was frozen once: every request is an immutable view of it
    owners = {id(request.data.obj) if isinstance(request.data, memoryview)
              else id(request.data) for request in built}
    assert len(owners) == 1
    assert all(request.data.readonly if isinstance(request.data, memoryview)
               else type(request.data) is bytes for request in built)


@settings(max_examples=100, deadline=None)
@given(runs_lists)
def test_read_vector_from_runs_is_the_for_read_vector(runs):
    assert IOVector.from_runs(runs) == IOVector.for_read(runs)
    assert IOVector.from_runs(runs).is_read


def test_from_runs_checks_the_payload_once():
    with pytest.raises(InvalidRegion):
        IOVector.from_runs([(0, 4), (10, 4)], b"1234567")
    single = b"abcd"
    assert IOVector.from_runs([(8, 4)], single)[0].data is single


# ----------------------------------------------------------------------
# the memoized description
# ----------------------------------------------------------------------
views = st.builds(
    FileView, displacement=st.integers(0, 64), etype=st.just(BYTE),
    filetype=st.one_of(vector_types(), indexed_types(), subarray_types()
                       ).filter(lambda datatype: datatype.size > 0))


@settings(max_examples=200, deadline=None)
@given(views, st.integers(0, 12), st.integers(1, 80), st.integers(0, 9))
def test_memoized_description_is_the_encoded_requests(view, offset, nbytes,
                                                      floor):
    payload = bytes(nbytes)
    for vector in (build_write_vector(view, offset, payload),
                   build_read_vector(view, offset, nbytes)):
        encoded = encode_extents([(request.offset, request.size)
                                  for request in vector])
        assert vector.description() == encoded
        assert _opening_bytes(("ok", vector.description(), floor)) \
            == _opening_bytes(("ok", encoded, floor))
    # the write and the read of one access share one description
    assert build_write_vector(view, offset, payload).description() \
        is build_read_vector(view, offset, nbytes).description()


# ----------------------------------------------------------------------
# what the collective derives from the descriptions
# ----------------------------------------------------------------------
extent_lists = st.lists(st.tuples(st.integers(0, 4000), st.integers(0, 300)),
                        max_size=12)


@st.composite
def strided_lists(draw):
    """A view's shape: equal blocks at a constant stride, in either order."""
    size = draw(st.integers(0, 64))
    stride = draw(st.integers(1, 700))
    blocks = [(draw(st.integers(0, 200)) + index * stride, size)
              for index in range(draw(st.integers(0, 9)))]
    return blocks[::-1] if draw(st.booleans()) else blocks


rank_extents = st.lists(st.one_of(extent_lists, strided_lists()),
                        min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.one_of(extent_lists, strided_lists()))
def test_description_runs_are_the_canonical_extents(extents):
    assert _description_runs(encode_extents(extents)) == \
        canonical_runs(extents)


def test_description_runs_cases():
    # a view's shape expands as it is; repeated, descending, touching and
    # overlapping entries are merged
    assert _description_runs([(0, 2, 10, 3), (25, 1)]) == \
        [(0, 2), (10, 12), (20, 22), (25, 26)]
    assert _description_runs([(5, 3, 0, 3)]) == [(5, 8)]
    assert _description_runs([(40, 4, -20, 3)]) == [(0, 4), (20, 24), (40, 44)]
    assert _description_runs([(0, 4, 4, 3), (12, 1)]) == [(0, 13)]
    assert _description_runs([(0, 6, 4, 3), (0, 0)]) == [(0, 14)]
    assert _description_runs([]) == []


@settings(max_examples=300, deadline=None)
@given(rank_extents, st.integers(1, 6), st.sampled_from([1, 64, 256]))
def test_buckets_hold_every_rank_that_wants_a_stripe(extents_by_rank, count,
                                                    align):
    descriptions = [encode_extents(extents) for extents in extents_by_rank]
    errors, described, _pinned, lo, hi = _scan_gather(
        [("ok", description) for description in descriptions])
    data = [(offset, offset + size) for extents in extents_by_rank
            for offset, size in extents if size]
    assert not errors and described == descriptions
    assert (lo, hi) == ((min(data)[0], max(end for _start, end in data))
                        if data else (0, 0))
    if not data:
        return
    domains = partition_file_domain(lo, hi, count, align)
    buckets = _stripe_ranks(descriptions, domains)
    for stripe, (start, end) in enumerate(domains):
        wanting = [rank for rank, extents in enumerate(extents_by_rank)
                   if clip_runs(canonical_runs(extents), start, end)]
        assert set(wanting) <= set(buckets[stripe])
        assert buckets[stripe] == sorted(set(buckets[stripe]))


def test_strided_ranks_reach_one_bucket_entry_per_stripe():
    # 64 interleaved ranks of 16 blocks over 16 stripes: a rank's gaps are
    # narrower than a stripe, so it is bucketed per stripe, not per block;
    # with wider gaps each block lands in a stripe of its own
    for ranks, count in ((64, 16), (256, 64)):
        descriptions = [encode_extents([(index * ranks * 1024 + rank * 1024,
                                         1024) for index in range(16)])
                        for rank in range(ranks)]
        domains = partition_file_domain(0, 16 * ranks * 1024, count, 16384)
        buckets = _stripe_ranks(descriptions, domains)
        assert sum(len(bucket) for bucket in buckets) == 16 * ranks
        assert buckets[0] == list(range(64))
