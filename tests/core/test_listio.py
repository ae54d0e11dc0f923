"""Unit tests for List-I/O vectored access descriptors."""

import pytest

from repro.core.listio import IORequest, IOVector, assemble
from repro.core.regions import Region
from repro.errors import InvalidRegion


class TestIORequest:
    def test_write_request(self):
        req = IORequest(10, 4, b"abcd")
        assert req.is_write
        assert req.region == Region(10, 4)

    def test_read_request(self):
        req = IORequest(10, 4)
        assert not req.is_write

    def test_payload_length_must_match(self):
        with pytest.raises(InvalidRegion):
            IORequest(0, 4, b"ab")

    def test_negative_offset_rejected(self):
        with pytest.raises(InvalidRegion):
            IORequest(-1, 4, b"abcd")


class TestIOVector:
    def test_for_write_constructor(self):
        vec = IOVector.for_write([(0, b"ab"), (10, b"cd")])
        assert vec.is_write
        assert not vec.is_read
        assert vec.total_bytes() == 4

    def test_for_read_constructor(self):
        vec = IOVector.for_read([(0, 2), (10, 2)])
        assert vec.is_read
        assert not vec.is_write

    def test_contiguous_constructors(self):
        assert IOVector.contiguous_write(5, b"xyz").is_contiguous()
        assert IOVector.contiguous_read(5, 3).is_contiguous()

    def test_region_list_and_extent(self):
        vec = IOVector.for_write([(10, b"aa"), (0, b"bb")])
        assert vec.covering_extent() == Region(0, 12)
        assert vec.region_list().as_tuples() == [(10, 2), (0, 2)]

    def test_is_contiguous_detection(self):
        assert IOVector.for_write([(0, b"ab"), (2, b"cd")]).is_contiguous()
        assert not IOVector.for_write([(0, b"ab"), (3, b"cd")]).is_contiguous()

    def test_overlaps(self):
        a = IOVector.for_write([(0, b"aaaa")])
        b = IOVector.for_write([(2, b"bb")])
        c = IOVector.for_write([(10, b"cc")])
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_apply_to_in_order(self):
        content = bytearray(b"........")
        IOVector.for_write([(0, b"AA"), (1, b"BB")]).apply_to(content)
        assert bytes(content) == b"ABB....."

    def test_apply_to_grows_target(self):
        content = bytearray(b"ab")
        IOVector.for_write([(5, b"XY")]).apply_to(content)
        assert bytes(content) == b"ab\x00\x00\x00XY"

    def test_apply_to_rejects_read_vector(self):
        with pytest.raises(InvalidRegion):
            IOVector.for_read([(0, 2)]).apply_to(bytearray(b"1234"))

    def test_extract_from(self):
        data = b"0123456789"
        vec = IOVector.for_read([(0, 3), (8, 4)])
        assert vec.extract_from(data) == [b"012", b"89\x00\x00"]

    def test_sorted_by_offset(self):
        vec = IOVector.for_write([(10, b"a"), (0, b"b")])
        assert [req.offset for req in vec.sorted_by_offset()] == [0, 10]

    def test_equality_and_hash(self):
        a = IOVector.for_write([(0, b"xy")])
        b = IOVector.for_write([(0, b"xy")])
        assert a == b
        assert hash(a) == hash(b)

    def test_apply_then_extract_roundtrip(self):
        content = bytearray(b"\x00" * 64)
        pairs = [(3, b"hello"), (20, b"world"), (40, b"!")]
        IOVector.for_write(pairs).apply_to(content)
        read_back = IOVector.for_read([(off, len(data)) for off, data in pairs])
        assert read_back.extract_from(bytes(content)) == [d for _, d in pairs]


class TestAssemble:
    def test_holes_and_gaps_of_any_length_read_as_zeros(self):
        """A hole carries no bytes and a gap has no extent; both read as
        zeros, past the shared zero block's length too."""
        big = 5 * 1024 * 1024 + 3
        extents = [(0, 4, b"head"), (4, big, None),
                   (big + 10, 4, memoryview(b"xtail")[1:])]
        vector = IOVector.for_read([(2, big + 12), (big + 9, 3), (1, 2)])
        image = b"head" + bytes(big + 6) + b"tail"
        expected = [image[2:big + 14], image[big + 9:big + 12], image[1:3]]
        assert assemble(vector, extents) == expected
        assert assemble(vector, extents, joined=True) == b"".join(expected)

    def test_a_whole_bytes_extent_is_returned_as_it_is(self):
        data = b"stored"
        vector = IOVector.for_read([(10, 6)])
        assert assemble(vector, [(10, 6, data)])[0] is data
        assert assemble(IOVector(), [(10, 6, data)], joined=True) == b""
