"""Unit tests for List-I/O vectored access descriptors."""

import pytest

from repro.core.listio import IORequest, IOVector, assemble
from repro.core.regions import canonical_runs, runs_overlap
from repro.errors import InvalidRegion


class TestIORequest:
    def test_write_request(self):
        req = IORequest(10, 4, b"abcd")
        assert req.is_write
        assert (req.offset, req.size, req.data) == (10, 4, b"abcd")

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
        assert IOVector.contiguous_write(5, b"xyz").extents() == [(5, 3)]
        assert IOVector.contiguous_read(5, 3).covering_extent() == (5, 3)

    def test_extents_and_covering_extent(self):
        vec = IOVector.for_write([(10, b"aa"), (0, b"bb")])
        assert vec.covering_extent() == (0, 12)
        assert vec.extents() == [(10, 2), (0, 2)]
        # empty requests cover nothing
        assert IOVector.for_read([(40, 0), (8, 2)]).covering_extent() == (8, 2)
        assert IOVector.for_read([(40, 0)]).covering_extent() == (0, 0)
        assert IOVector().covering_extent() == (0, 0)

    def test_touching_requests_make_one_run(self):
        assert canonical_runs(IOVector.for_write(
            [(2, b"cd"), (0, b"ab")]).extents()) == [(0, 4)]
        assert canonical_runs(IOVector.for_write(
            [(0, b"ab"), (3, b"cd")]).extents()) == [(0, 2), (3, 5)]

    def test_overlaps(self):
        def runs(pairs):
            return canonical_runs(IOVector.for_write(pairs).extents())
        a, b, c = runs([(0, b"aaaa")]), runs([(2, b"bb")]), runs([(4, b"cc")])
        assert runs_overlap(a, b) and runs_overlap(b, a)
        assert not runs_overlap(a, c)  # adjacent is not overlapping
        assert not runs_overlap(a, [])

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
