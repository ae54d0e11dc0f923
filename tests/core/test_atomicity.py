"""Unit tests for the MPI-atomicity checker."""

import itertools
import random

import pytest

from repro.core.atomicity import (
    VectoredWrite,
    apply_writes,
    check_mpi_atomicity,
    find_serialization,
    interleaving_example,
)
from repro.core.listio import IOVector
from repro.errors import AtomicityViolation


def write(writer_id, pairs):
    return VectoredWrite(writer_id, IOVector.for_write(pairs))


def padded(content, length):
    """``content`` zero-padded or cut to ``length`` bytes."""
    return content[:length] + bytes(max(0, length - len(content)))


def reference_serialization(initial, writes, observed):
    """The plain exhaustive search: replay every order, compare."""
    requests = [[(r.offset, r.offset + r.size, r.data) for r in w.vector]
                for w in writes]
    extent = max([len(observed)] + [end for pieces in requests
                                     for _, end, _ in pieces])
    start = padded(initial, extent)
    for order in itertools.permutations(range(len(writes))):
        content = bytearray(start)
        for index in order:
            for offset, end, data in requests[index]:
                content[offset:end] = data
        if content[:len(observed)] == observed:
            return list(order)
    return None


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

    def test_eleven_identical_extent_writers_are_decided(self):
        """11! orders of one conflict group: no search, no budget."""
        writes = [write(writer, [(0, bytes([65 + writer]) * 4)])
                  for writer in range(11)]
        observed = apply_writes(b"\x00" * 4, writes)
        assert check_mpi_atomicity(b"\x00" * 4, writes, observed)
        assert find_serialization(b"\x00" * 4, writes, observed)[-1] == 10

    def test_a_64_writer_single_group_is_decided_both_ways(self):
        """Two chains of overlapping neighbours, each writer in both: one
        conflict group of 64.  The serial file is atomic; a file where
        writers 0 and 1 overlap in both chains, and the two overlaps
        resolve in opposite orders, is not."""
        writes = [write(w, [(8 * w, bytes([w + 1]) * 16),
                            (1024 + 8 * w, bytes([w + 1]) * 16)])
                  for w in range(64)]
        initial = bytes(2048)
        serial = apply_writes(initial, writes)
        assert check_mpi_atomicity(initial, writes, serial, True)
        assert find_serialization(initial, writes, serial) == list(range(64))
        crossed = bytearray(serial)
        crossed[1032:1040] = bytes([1]) * 8  # writer 0 above 1, second chain
        assert not check_mpi_atomicity(initial, writes, bytes(crossed))
        with pytest.raises(AtomicityViolation, match=r"\[0, 1\]"):
            check_mpi_atomicity(initial, writes, bytes(crossed), True)

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

    def test_zero_fill_past_every_write_is_preserved(self):
        """The file ends past every write and past ``initial``: that byte
        is zero-fill, not a byte the replay failed to produce."""
        writes = [write(0, [(0, b"A")])]
        assert check_mpi_atomicity(b"", writes, b"A\x00")
        assert find_serialization(b"", writes, b"A\x00") == [0]
        assert not check_mpi_atomicity(b"", writes, b"A\x01")


class TestInterleavingExample:
    def test_interleaving_example_touches_all_requests(self):
        writes = [
            write(0, [(0, b"AA"), (4, b"AA")]),
            write(1, [(2, b"BB"), (6, b"BB")]),
        ]
        result = interleaving_example(b"\x00" * 8, writes)
        assert result == b"AABBAABB"


def _random_case(rng):
    """1-6 writers of 1-3 requests each over a file under 20 bytes, which
    ``initial`` may fall short of or cover in full.  Requests of one write
    may overlap each other; half the cases draw every payload from two
    fill values, so equal bytes on an overlap are common."""
    ambiguous = rng.random() < 0.5
    writes = []
    for writer in range(rng.randint(1, 6)):
        palette = (1, 2) if ambiguous else (2 * writer + 3, 2 * writer + 4)
        pairs = [(rng.randrange(0, 12),
                  bytes([rng.choice(palette)]) * rng.randint(1, 6))
                 for _ in range(rng.randint(1, 3))]
        writes.append(write(writer, pairs))
    length = max(request.offset + request.size
                 for w in writes for request in w.vector)
    length += rng.choice((0, 0, 2))
    initial = bytes([rng.choice((0, 1, 9))]) * \
        rng.choice((length, rng.randrange(0, length)))
    order = rng.sample(range(len(writes)), len(writes))
    serial = padded(apply_writes(initial, writes, order), length)
    kind = rng.randrange(4)
    if kind == 0:
        observed = serial
    elif kind == 1:
        observed = padded(interleaving_example(initial, writes), length)
    else:
        mutated = bytearray(serial)
        for _ in range(kind - 1):
            mutated[rng.randrange(length)] = rng.choice((0, 1, 2, 3, 9))
        observed = bytes(mutated)
    return initial, writes, observed


def test_agrees_with_the_exhaustive_search_on_random_cases():
    rng = random.Random(20110516)
    decided = {True: 0, False: 0}
    for _ in range(2000):
        initial, writes, observed = _random_case(rng)
        order = find_serialization(initial, writes, observed)
        expected = reference_serialization(initial, writes, observed)
        assert (order is not None) == (expected is not None), \
            (initial, writes, observed)
        assert check_mpi_atomicity(initial, writes, observed) \
            == (order is not None)
        if order is not None:
            assert sorted(order) == list(range(len(writes)))
            assert padded(apply_writes(initial, writes, order),
                          len(observed)) == observed
        decided[order is not None] += 1
    # both answers are common, so neither side of the rule goes unchecked
    assert min(decided.values()) > 500, decided
