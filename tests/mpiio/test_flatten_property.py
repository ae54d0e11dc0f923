"""Property-based tests of file-view flattening against a reference model.

The reference model materializes the view's accessible-byte map explicitly
(byte by byte) and compares it with the production flattening, for random
vector-of-blocks filetypes and random access windows.
"""

from hypothesis import given, settings, strategies as st

from repro.mpi.datatypes import BYTE, Indexed, Vector
from repro.mpiio.flatten import FileView, build_write_vector, flatten_view_access
from tests._regions import RegionList


@st.composite
def vector_views(draw):
    count = draw(st.integers(1, 4))
    blocklength = draw(st.integers(1, 6))
    stride = draw(st.integers(blocklength, blocklength + 6))
    displacement = draw(st.integers(0, 64))
    return FileView(displacement=displacement,
                    filetype=Vector(count=count, blocklength=blocklength,
                                    stride=stride, base=BYTE))


@st.composite
def indexed_views(draw):
    num_blocks = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(1, 8), min_size=num_blocks,
                            max_size=num_blocks))
    # strictly increasing, non-overlapping displacements
    gaps = draw(st.lists(st.integers(0, 5), min_size=num_blocks,
                         max_size=num_blocks))
    displacements = []
    cursor = 0
    for length, gap in zip(lengths, gaps):
        cursor += gap
        displacements.append(cursor)
        cursor += length
    return FileView(displacement=draw(st.integers(0, 32)),
                    filetype=Indexed(lengths, displacements, base=BYTE))


def reference_accessible_bytes(view: FileView, limit: int):
    """Absolute offsets of the first ``limit`` accessible bytes of the view."""
    accessible = []
    tile = 0
    flat = view.filetype.flatten()
    while len(accessible) < limit:
        origin = view.displacement + tile * view.filetype.extent
        for region in flat:
            for byte in range(region.offset, region.end):
                accessible.append(origin + byte)
                if len(accessible) >= limit:
                    break
            if len(accessible) >= limit:
                break
        tile += 1
    return accessible


@settings(max_examples=80, deadline=None)
@given(view=st.one_of(vector_views(), indexed_views()), data=st.data())
def test_flatten_matches_reference_byte_map(view, data):
    offset = data.draw(st.integers(0, 20))
    nbytes = data.draw(st.integers(0, 60))
    regions = flatten_view_access(view, offset, nbytes)

    reference = reference_accessible_bytes(view, offset + nbytes)[offset:]
    expected = RegionList([(byte, 1) for byte in reference]).normalized()
    assert list(regions) == expected.as_tuples()
    assert sum(size for _offset, size in regions) == nbytes


@settings(max_examples=50, deadline=None)
@given(view=st.one_of(vector_views(), indexed_views()), data=st.data())
def test_write_vector_payload_follows_accessible_order(view, data):
    nbytes = data.draw(st.integers(1, 40))
    payload = bytes(range(1, nbytes + 1))
    vector = build_write_vector(view, 0, payload)

    # applying the vector to an empty file and collecting the accessible
    # bytes in order must give the payload back
    content = bytearray()
    vector.apply_to(content)
    accessible = reference_accessible_bytes(view, nbytes)
    assert bytes(content[offset] for offset in accessible) == payload
    assert vector.total_bytes() == nbytes
