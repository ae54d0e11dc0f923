"""The verdict of ``benchmarks/host_pairs.py``: a host-time gain is claimed
only over at least ten pairs, when the change wins at least nine tenths of
them (ties count for neither side) and the medians lie further apart than
the parent's interquartile range."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "host_pairs", REPO / "benchmarks" / "host_pairs.py")
host_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(host_pairs)

PARENT = [0.300, 0.310, 0.305, 0.295, 0.320, 0.302, 0.298, 0.315, 0.307, 0.301]


def test_a_clear_gain_holds():
    change = [value - 0.05 for value in PARENT]
    result = host_pairs.verdict(PARENT, change)
    assert (result.pairs, result.wins) == (10, 10)
    assert result.parent_median == pytest.approx(0.3035)
    assert result.change_median == pytest.approx(0.2535)
    q1, _median, q3 = host_pairs.quartiles(PARENT)
    assert result.parent_iqr == pytest.approx(q3 - q1)
    assert result.holds


def test_nine_wins_of_ten_are_enough_and_eight_are_not():
    change = [value - 0.05 for value in PARENT]
    change[0] = PARENT[0] + 0.01
    assert host_pairs.verdict(PARENT, change).wins == 9
    assert host_pairs.verdict(PARENT, change).holds
    change[1] = PARENT[1]  # a tie counts for neither side
    assert host_pairs.verdict(PARENT, change).wins == 8
    assert not host_pairs.verdict(PARENT, change).holds


def test_winning_every_pair_within_the_parents_spread_is_no_gain():
    change = [value - 0.001 for value in PARENT]
    result = host_pairs.verdict(PARENT, change)
    assert result.wins == 10
    assert result.parent_median - result.change_median < result.parent_iqr
    assert not result.holds


def test_fewer_than_ten_pairs_show_nothing():
    change = [value - 0.05 for value in PARENT]
    result = host_pairs.verdict(PARENT[:9], change[:9])
    assert result.wins == 9 and not result.holds


def test_a_slower_change_never_holds():
    assert not host_pairs.verdict(PARENT, [v + 0.05 for v in PARENT]).holds


def test_runs_must_pair_up():
    with pytest.raises(ValueError):
        host_pairs.verdict(PARENT, PARENT[:-1])
    with pytest.raises(ValueError):
        host_pairs.verdict([], [])
