"""Unit tests for deterministic random streams."""

from repro.simengine import DeterministicRNG


def test_same_seed_same_stream():
    a = DeterministicRNG(42).stream("latency")
    b = DeterministicRNG(42).stream("latency")
    assert list(a.integers(0, 1000, size=10)) == list(b.integers(0, 1000, size=10))


def test_different_streams_are_independent():
    rng = DeterministicRNG(42)
    a = list(rng.stream("a").integers(0, 1000, size=10))
    b = list(rng.stream("b").integers(0, 1000, size=10))
    assert a != b


def test_different_seeds_differ():
    a = list(DeterministicRNG(1).stream("x").integers(0, 1000, size=10))
    b = list(DeterministicRNG(2).stream("x").integers(0, 1000, size=10))
    assert a != b


def test_stream_is_cached():
    rng = DeterministicRNG(0)
    assert rng.stream("s") is rng.stream("s")

