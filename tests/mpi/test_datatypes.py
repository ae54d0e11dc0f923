"""Unit tests for MPI-like derived datatypes."""

import pytest

from repro.errors import DatatypeError
from repro.mpi.datatypes import BYTE, DOUBLE, INT, Contiguous, Indexed, Subarray, Vector


class TestBasicTypes:
    def test_sizes(self):
        assert BYTE.size == 1 and BYTE.extent == 1
        assert INT.size == 4
        assert DOUBLE.size == 8

    def test_flatten(self):
        assert list(INT.runs()) == [(0, 4)]

    def test_tiled(self):
        assert INT.tiled_runs(3) == ((0, 12),)
        assert INT.tiled_runs(2, origin=100) == ((100, 8),)


class TestContiguous:
    def test_size_extent_flatten(self):
        datatype = Contiguous(5, INT)
        assert datatype.size == 20
        assert datatype.extent == 20
        assert list(datatype.runs()) == [(0, 20)]

    def test_negative_count_rejected(self):
        with pytest.raises(DatatypeError):
            Contiguous(-1)


class TestVector:
    def test_strided_blocks(self):
        datatype = Vector(count=3, blocklength=2, stride=4, base=BYTE)
        assert list(datatype.runs()) == [(0, 2), (4, 2), (8, 2)]
        assert datatype.size == 6
        assert datatype.extent == 10

    def test_vector_of_ints(self):
        datatype = Vector(count=2, blocklength=1, stride=3, base=INT)
        assert list(datatype.runs()) == [(0, 4), (12, 4)]

    def test_contiguous_when_stride_equals_blocklength(self):
        datatype = Vector(count=4, blocklength=2, stride=2, base=BYTE)
        assert list(datatype.runs()) == [(0, 8)]

    def test_invalid_stride_rejected(self):
        with pytest.raises(DatatypeError):
            Vector(count=2, blocklength=4, stride=2)

    def test_zero_count(self):
        datatype = Vector(count=0, blocklength=2, stride=4)
        assert datatype.extent == 0
        assert len(datatype.flatten()) == 0


class TestIndexed:
    def test_blocks_at_displacements(self):
        datatype = Indexed([2, 3], [0, 10], base=BYTE)
        assert list(datatype.runs()) == [(0, 2), (10, 3)]
        assert datatype.size == 5
        assert datatype.extent == 13

    def test_length_mismatch_rejected(self):
        with pytest.raises(DatatypeError):
            Indexed([1, 2], [0])

    def test_negative_values_rejected(self):
        with pytest.raises(DatatypeError):
            Indexed([-1], [0])
        with pytest.raises(DatatypeError):
            Indexed([1], [-2])


class TestSubarray:
    def test_2d_subarray(self):
        # 4x4 array of bytes, 2x2 subarray at (1, 1)
        datatype = Subarray(sizes=[4, 4], subsizes=[2, 2], starts=[1, 1])
        assert list(datatype.runs()) == [(5, 2), (9, 2)]
        assert datatype.size == 4
        assert datatype.extent == 16

    def test_2d_subarray_with_element_type(self):
        datatype = Subarray(sizes=[4, 4], subsizes=[2, 2], starts=[0, 2], base=INT)
        assert list(datatype.runs()) == [(8, 8), (24, 8)]

    def test_full_array_is_contiguous(self):
        datatype = Subarray(sizes=[4, 4], subsizes=[4, 4], starts=[0, 0])
        assert list(datatype.runs()) == [(0, 16)]

    def test_1d_subarray(self):
        datatype = Subarray(sizes=[10], subsizes=[3], starts=[4])
        assert list(datatype.runs()) == [(4, 3)]

    def test_3d_subarray_row_count(self):
        datatype = Subarray(sizes=[3, 4, 5], subsizes=[2, 2, 3], starts=[1, 1, 1])
        regions = datatype.flatten()
        assert [(r.offset, r.size) for r in regions] == list(datatype.runs())
        # 2*2 rows of 3 contiguous bytes each
        assert len(regions) == 4
        assert all(region.size == 3 for region in regions)
        assert datatype.size == 12

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(DatatypeError):
            Subarray(sizes=[4], subsizes=[2, 2], starts=[0])
        with pytest.raises(DatatypeError):
            Subarray(sizes=[4], subsizes=[5], starts=[0])
        with pytest.raises(DatatypeError):
            Subarray(sizes=[4], subsizes=[2], starts=[3])
        with pytest.raises(DatatypeError):
            Subarray(sizes=[], subsizes=[], starts=[])

    def test_empty_subarray(self):
        datatype = Subarray(sizes=[4, 4], subsizes=[0, 2], starts=[0, 0])
        assert len(datatype.flatten()) == 0
        assert datatype.size == 0

    def test_subarray_over_a_gappy_base_is_the_type_map(self):
        # MPI's type map: each selected element is a copy of the base's
        # map (bytes 0 and 2 of a Vector(2, 1, 2)) at the element's
        # displacement, so the base's gap stays a gap
        gappy = Vector(2, 1, 2, BYTE)
        single = Subarray((1,), (1,), (0,), gappy)
        assert single.runs() == ((0, 1), (2, 1))
        assert single.size == 2
        pair = Subarray((4,), (2,), (1,), gappy)
        assert pair.runs() == ((3, 1), (5, 2), (8, 1))
        assert pair.size == 4
        rows = Subarray((2, 3), (2, 1), (0, 1), gappy)
        assert rows.runs() == ((3, 1), (5, 1), (12, 1), (14, 1))

    def test_subarray_total_bytes_match_size(self):
        datatype = Subarray(sizes=[8, 8], subsizes=[3, 5], starts=[2, 1], base=DOUBLE)
        assert sum(size for _offset, size in datatype.runs()) == datatype.size == 3 * 5 * 8
