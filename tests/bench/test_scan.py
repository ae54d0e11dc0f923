"""The scan point's two read-time columns: the span and one call's mean."""

from types import SimpleNamespace

import pytest

from repro.bench.scan import STAGGER_S, run_scan_point
from repro.bench.suites import SUITES
from repro.cluster import ClusterConfig

SETTINGS = SimpleNamespace(**{**SUITES["sharedcache"].settings,
                              **SUITES["sharedcache"].smoke})


def scan(**options):
    row, _extras = run_scan_point(SETTINGS, ClusterConfig(), prefix="t",
                                  mode="shared",
                                  num_clients=SETTINGS.num_clients, **options)
    return row


def test_span_is_mostly_the_stagger_and_the_mean_is_not():
    row = scan()
    stagger = (SETTINGS.num_clients - 1) * STAGGER_S
    assert row["sim_read_s"] > stagger
    assert 0 < row["sim_read_mean_ms"] * 1e-3 < STAGGER_S


@pytest.mark.parametrize("shared", [False, True])
def test_without_stagger_the_mean_fits_inside_the_span(shared):
    """Every client reads its rounds back to back from time zero, so one
    call's mean latency times the rounds is at most the slowest client's
    total: the span."""
    row = scan(stagger_s=0.0, shared=shared)
    assert row["sim_read_mean_ms"] * 1e-3 * SETTINGS.rounds \
        <= row["sim_read_s"] + 1e-12
