"""The precedence-graph checker against the exact permutation checker."""

import random

import pytest

from perfbench.atomicity import AmbiguousPayload, explain, is_atomic
from repro.core.atomicity import (VectoredWrite, apply_writes,
                                  check_mpi_atomicity, interleaving_example)
from repro.core.listio import IOVector


def _pattern(rng, writers):
    """Up to six writers, each a few disjoint pieces filled with its own
    byte, overlapping the others' at random."""
    writes = []
    for writer in range(writers):
        cursor, pieces = rng.randrange(0, 8), []
        for _ in range(rng.randrange(1, 4)):
            size = rng.randrange(1, 12)
            pieces.append((cursor, bytes([writer + 1]) * size))
            cursor += size + rng.randrange(0, 6)
        writes.append(pieces)
    return writes


def _vectored(writes):
    return [VectoredWrite(index, IOVector.for_write(pieces))
            for index, pieces in enumerate(writes)]


def _scrambled(rng, writes, size):
    """Each byte from a random writer covering it: rarely a serial state."""
    content = bytearray(size)
    for index in rng.sample(range(len(writes)), len(writes)):
        for offset, payload in writes[index]:
            for position in range(offset, offset + len(payload)):
                if rng.random() < 0.5:
                    content[position] = payload[0]
    return bytes(content)


@pytest.mark.parametrize("seed", range(40))
def test_agrees_with_the_exact_checker_on_small_patterns(seed):
    rng = random.Random(seed)
    writes = _pattern(rng, rng.randrange(2, 7))
    vectored = _vectored(writes)
    size = max(offset + len(payload)
               for pieces in writes for offset, payload in pieces)
    initial = b"\x00" * size
    order = rng.sample(range(len(writes)), len(writes))
    candidates = [apply_writes(initial, vectored, order),
                  interleaving_example(initial, vectored),
                  _scrambled(rng, writes, size)]
    for observed in candidates:
        assert is_atomic(writes, observed) \
            == check_mpi_atomicity(initial, vectored, observed)


def test_serial_order_found_replays_to_the_file():
    rng = random.Random(7)
    writes = _pattern(rng, 6)
    vectored = _vectored(writes)
    observed = apply_writes(b"\x00" * 64, vectored, [3, 0, 5, 1, 4, 2])
    order, reason = explain(writes, observed)
    assert reason == ""
    assert apply_writes(b"\x00" * 64, vectored, order) == observed


def test_flags_an_interleaved_file():
    # two writers, two pieces each, both pieces overlapping: round-robin
    # application leaves writer 1 on top in one overlap and writer 2 in
    # the other, which no serial order produces
    writes = [[(0, b"\x01" * 8), (16, b"\x01" * 8)],
              [(16, b"\x02" * 8), (0, b"\x02" * 8)]]
    vectored = _vectored(writes)
    observed = interleaving_example(b"\x00" * 24, vectored)
    assert not check_mpi_atomicity(b"\x00" * 24, vectored, observed)
    order, reason = explain(writes, observed)
    assert order is None and "cycle" in reason


def test_respects_happens_before():
    writes = [[(0, b"\x01" * 4)], [(0, b"\x02" * 4)]]
    assert is_atomic(writes, b"\x01" * 4)
    assert not is_atomic(writes, b"\x01" * 4, happens_before=[(0, 1)])
    assert is_atomic(writes, b"\x02" * 4, happens_before=[(0, 1)])


def test_flags_bytes_nobody_wrote():
    writes = [[(2, b"\x01" * 2)]]
    assert is_atomic(writes, b"\x00\x00\x01\x01\x00")
    assert not is_atomic(writes, b"\x00\x09\x01\x01\x00")
    assert not is_atomic(writes, b"\x00\x00\x01\x07\x00")
    assert is_atomic(writes, b"\x05\x05\x01\x01", initial=b"\x05" * 4)


def test_refuses_payloads_that_cannot_name_their_writer():
    writes = [[(0, b"\x01" * 4)], [(2, b"\x01" * 4)]]
    with pytest.raises(AmbiguousPayload):
        is_atomic(writes, b"\x01" * 6)
