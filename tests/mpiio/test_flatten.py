"""Unit tests for file-view flattening."""

import pytest

from repro.errors import MPIIOError
from repro.mpi.datatypes import BYTE, INT, Contiguous, Subarray, Vector
from repro.mpiio.flatten import (
    FileView,
    build_read_vector,
    build_write_vector,
    flatten_view_access,
)


class TestFileView:
    def test_default_view_is_byte_stream(self):
        view = FileView()
        assert list(flatten_view_access(view, 0, 10)) == [(0, 10)]

    def test_displacement_shifts_access(self):
        view = FileView(displacement=100)
        assert list(flatten_view_access(view, 0, 10)) == [(100, 10)]

    def test_etype_offset_units(self):
        view = FileView(etype=INT, filetype=Contiguous(4, INT))
        assert list(flatten_view_access(view, 3, 8)) == [(12, 8)]

    def test_invalid_views_rejected(self):
        with pytest.raises(MPIIOError):
            FileView(displacement=-1)
        with pytest.raises(MPIIOError):
            FileView(etype=INT, filetype=Vector(2, 3, 4, BYTE))  # 6 not multiple of 4


class TestStridedView:
    def test_vector_filetype_tiles(self):
        # filetype: bytes [0,2) and [4,6) accessible; its extent is 6, so the
        # next tiled instance starts at byte 6 (standard MPI extent semantics)
        view = FileView(filetype=Vector(count=2, blocklength=2, stride=4, base=BYTE))
        regions = flatten_view_access(view, 0, 8)
        assert list(regions) == [(0, 2), (4, 4), (10, 2)]

    def test_access_starting_inside_a_tile(self):
        view = FileView(filetype=Vector(count=2, blocklength=2, stride=4, base=BYTE))
        regions = flatten_view_access(view, 1, 4)
        assert list(regions) == [(1, 1), (4, 3)]

    def test_access_skipping_whole_tiles(self):
        view = FileView(filetype=Vector(count=2, blocklength=2, stride=4, base=BYTE))
        regions = flatten_view_access(view, 4, 4)
        assert list(regions) == [(6, 2), (10, 2)]

    def test_zero_byte_access(self):
        view = FileView()
        assert len(flatten_view_access(view, 0, 0)) == 0

    def test_negative_arguments_rejected(self):
        view = FileView()
        with pytest.raises(MPIIOError):
            flatten_view_access(view, -1, 4)
        with pytest.raises(MPIIOError):
            flatten_view_access(view, 0, -4)


class TestSubarrayView:
    def test_2d_tile_view(self):
        # a 8x8-byte global array; this rank owns the 4x4 tile at (0, 4)
        tile = Subarray(sizes=[8, 8], subsizes=[4, 4], starts=[0, 4])
        view = FileView(filetype=tile)
        regions = flatten_view_access(view, 0, 16)
        assert list(regions) == [(4, 4), (12, 4), (20, 4), (28, 4)]

    def test_write_vector_scatters_payload(self):
        tile = Subarray(sizes=[4, 4], subsizes=[2, 2], starts=[1, 1])
        view = FileView(filetype=tile)
        vector = build_write_vector(view, 0, b"abcd")
        assert list(vector.extents()) == [(5, 2), (9, 2)]
        assert [request.data for request in vector] == [b"ab", b"cd"]

    def test_read_vector_matches_write_vector_regions(self):
        tile = Subarray(sizes=[4, 4], subsizes=[2, 2], starts=[1, 1])
        view = FileView(filetype=tile)
        write_vec = build_write_vector(view, 0, b"abcd")
        read_vec = build_read_vector(view, 0, 4)
        assert list(read_vec.extents()) == list(write_vec.extents())

    def test_partial_payload(self):
        tile = Subarray(sizes=[4, 4], subsizes=[2, 2], starts=[0, 0])
        view = FileView(filetype=tile)
        vector = build_write_vector(view, 1, b"xyz")
        assert list(vector.extents()) == [(1, 1), (4, 2)]
        assert [request.data for request in vector] == [b"x", b"yz"]


class TestLastAccessMemo:
    """A view remembers its last flattened access (one entry)."""

    def test_repeating_an_access_returns_the_same_regions(self):
        view = FileView(displacement=64, filetype=Vector(4, 2, 8, BYTE))
        first = flatten_view_access(view, 2, 12)
        assert flatten_view_access(view, 2, 12) is first
        assert first == flatten_view_access(
            FileView(displacement=64, filetype=Vector(4, 2, 8, BYTE)), 2, 12)

    def test_a_different_access_replaces_the_entry(self):
        view = FileView(filetype=Vector(4, 2, 8, BYTE))
        first = flatten_view_access(view, 0, 8)
        other = flatten_view_access(view, 2, 8)
        assert other != first
        again = flatten_view_access(view, 0, 8)
        assert again == first and again is not first

    def test_a_new_view_starts_empty_and_compares_equal(self):
        view = FileView(filetype=Vector(4, 2, 8, BYTE))
        flatten_view_access(view, 0, 8)
        fresh = FileView(filetype=Vector(4, 2, 8, BYTE))
        assert fresh._last_access is None
        assert fresh == view

    def test_invalid_and_empty_accesses_are_not_remembered(self):
        view = FileView(filetype=Vector(4, 2, 8, BYTE))
        with pytest.raises(MPIIOError):
            flatten_view_access(view, -1, 8)
        assert len(flatten_view_access(view, 0, 0)) == 0
        assert view._last_access is None
