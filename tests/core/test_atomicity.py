"""Unit tests for the MPI-atomicity checker."""

import pytest

from repro.core.atomicity import (
    VectoredWrite,
    apply_writes,
    check_mpi_atomicity,
    find_serialization,
    interleaving_example,
)
from repro.core.listio import IOVector
from repro.errors import AtomicityViolation, CheckerBudgetExceeded


def write(writer_id, pairs):
    return VectoredWrite(writer_id, IOVector.for_write(pairs))


class TestApplyWrites:
    def test_apply_in_list_order(self):
        writes = [write(0, [(0, b"AAAA")]), write(1, [(2, b"BB")])]
        assert apply_writes(b"........", writes) == b"AABB...."

    def test_apply_with_explicit_order(self):
        writes = [write(0, [(0, b"AAAA")]), write(1, [(2, b"BB")])]
        assert apply_writes(b"........", writes, order=[1, 0]) == b"AAAA...."

    def test_apply_grows_file(self):
        writes = [write(0, [(10, b"Z")])]
        assert apply_writes(b"ab", writes) == b"ab" + b"\x00" * 8 + b"Z"


class TestFindSerialization:
    def test_no_writes_matches_initial(self):
        assert find_serialization(b"abc", [], b"abc") == []
        assert find_serialization(b"abc", [], b"abd") is None

    def test_single_write(self):
        writes = [write(0, [(0, b"XY")])]
        assert find_serialization(b"....", writes, b"XY..") == [0]

    def test_two_conflicting_writes_both_orders_found(self):
        writes = [write(0, [(0, b"AAAA")]), write(1, [(0, b"BBBB")])]
        assert find_serialization(b"....", writes, b"AAAA") is not None
        assert find_serialization(b"....", writes, b"BBBB") is not None

    def test_interleaved_result_has_no_serialization(self):
        writes = [write(0, [(0, b"AAAA")]), write(1, [(0, b"BBBB")])]
        assert find_serialization(b"....", writes, b"ABAB") is None

    def test_nonconflicting_writes_commute(self):
        writes = [write(i, [(i * 4, bytes([65 + i]) * 4)]) for i in range(8)]
        observed = apply_writes(b"\x00" * 32, writes)
        order = find_serialization(b"\x00" * 32, writes, observed)
        assert order is not None
        assert sorted(order) == list(range(8))

    def test_noncontiguous_overlapping_writes(self):
        # writer 0 writes two regions, writer 1 overlaps both
        writes = [
            write(0, [(0, b"AA"), (8, b"AA")]),
            write(1, [(1, b"BB"), (7, b"BB")]),
        ]
        # order 0 then 1
        observed_01 = apply_writes(b"." * 12, writes, order=[0, 1])
        assert find_serialization(b"." * 12, writes, observed_01) is not None
        # a mixed state: writer 0 wins in the first overlap, writer 1 in the
        # second — impossible under any serialization
        impossible = bytearray(observed_01)
        impossible[0:2] = b"AA"
        impossible[1:3] = b"AB"  # mix inside first overlap region
        if bytes(impossible) not in (
            apply_writes(b"." * 12, writes, order=[0, 1]),
            apply_writes(b"." * 12, writes, order=[1, 0]),
        ):
            assert find_serialization(b"." * 12, writes, bytes(impossible)) is None


class TestCheckMpiAtomicity:
    def test_serial_application_is_atomic(self):
        writes = [
            write(0, [(0, b"AAAA"), (10, b"AAAA")]),
            write(1, [(2, b"BBBB"), (12, b"BBBB")]),
        ]
        observed = apply_writes(b"\x00" * 20, writes, order=[1, 0])
        assert check_mpi_atomicity(b"\x00" * 20, writes, observed)

    def test_interleaving_detected_as_violation(self):
        writes = [
            write(0, [(0, b"AAAA"), (4, b"AAAA")]),
            write(1, [(0, b"BBBB"), (4, b"BBBB")]),
        ]
        # request-level round-robin interleaving mixes writers per region
        observed = interleaving_example(b"\x00" * 8, writes)
        # the interleaved state has writer 0's second region over writer 1's:
        # [AAAA][AAAA] after round robin A(0-4), B(0-4), A(4-8), B(4-8) ->
        # BBBB BBBB which is actually serializable; build a truly mixed state:
        mixed = b"AAAABBBB"
        orders = [
            apply_writes(b"\x00" * 8, writes, order=[0, 1]),
            apply_writes(b"\x00" * 8, writes, order=[1, 0]),
        ]
        if mixed not in orders:
            assert not check_mpi_atomicity(b"\x00" * 8, writes, mixed)
        assert check_mpi_atomicity(b"\x00" * 8, writes, observed) in (True, False)

    def test_untouched_bytes_must_be_preserved(self):
        writes = [write(0, [(0, b"AA")])]
        # byte 5 changed although nobody wrote it
        observed = b"AA\x00\x00\x00Z\x00\x00"
        assert not check_mpi_atomicity(b"\x00" * 8, writes, observed)
        with pytest.raises(AtomicityViolation):
            check_mpi_atomicity(b"\x00" * 8, writes, observed,
                                raise_on_violation=True)

    def test_raise_on_violation_for_interleaving(self):
        writes = [
            write(0, [(0, b"AAAA")]),
            write(1, [(0, b"BBBB")]),
        ]
        with pytest.raises(AtomicityViolation):
            check_mpi_atomicity(b"\x00" * 4, writes, b"ABAB",
                                raise_on_violation=True)

    @pytest.mark.parametrize("raise_on_violation", [False, True])
    def test_undecidable_is_not_reported_as_a_violation(self, raise_on_violation):
        """11 identical-extent writers leave a perfectly serial outcome; 11!
        orders is over the budget, and "cannot decide" is its own error."""
        writes = [write(writer, [(0, bytes([65 + writer]) * 4)])
                  for writer in range(11)]
        observed = apply_writes(b"\x00" * 4, writes)
        with pytest.raises(CheckerBudgetExceeded, match="group of 11") as caught:
            check_mpi_atomicity(b"\x00" * 4, writes, observed,
                                raise_on_violation=raise_on_violation)
        assert not isinstance(caught.value, AtomicityViolation)
        # ten writers are inside the limit, and a larger budget decides eleven
        assert check_mpi_atomicity(b"\x00" * 4, writes[1:], observed)
        assert find_serialization(b"\x00" * 4, writes, observed,
                                  max_group_permutations=40_000_000) is not None

    def test_three_writers_some_order(self):
        writes = [
            write(0, [(0, b"AAAAAA")]),
            write(1, [(2, b"BBBBBB")]),
            write(2, [(4, b"CCCCCC")]),
        ]
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            observed = apply_writes(b"\x00" * 12, writes, order=order)
            assert check_mpi_atomicity(b"\x00" * 12, writes, observed)

    def test_zero_fill_beyond_initial_is_preserved(self):
        writes = [write(0, [(10, b"XX")])]
        observed = b"\x00" * 10 + b"XX"
        assert check_mpi_atomicity(b"", writes, observed)


class TestInterleavingExample:
    def test_interleaving_example_touches_all_requests(self):
        writes = [
            write(0, [(0, b"AA"), (4, b"AA")]),
            write(1, [(2, b"BB"), (6, b"BB")]),
        ]
        result = interleaving_example(b"\x00" * 8, writes)
        assert result == b"AABBAABB"
