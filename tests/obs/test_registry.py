"""Unit tests of the unified metrics registry."""

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    IdentityViolation,
    MetricsRegistry,
    TimeWeightedSeries,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_counter_accumulates_and_gauge_overwrites():
    registry = MetricsRegistry()
    registry.add("a.count", 3)
    registry.add("a.count", 4)
    registry.set("a.gauge", 1.5)
    registry.set("a.gauge", 2.5)
    assert registry.get("a.count") == 7
    assert registry.get("a.gauge") == 2.5
    assert "a.count" in registry
    assert registry.get("missing", default=-1) == -1


def test_instruments_are_get_or_create_and_type_checked():
    registry = MetricsRegistry()
    counter = registry.counter("x")
    assert registry.counter("x") is counter
    assert isinstance(counter, Counter)
    assert isinstance(registry.gauge("y"), Gauge)
    assert isinstance(registry.series("z"), TimeWeightedSeries)
    with pytest.raises(TypeError):
        registry.gauge("x")
    with pytest.raises(TypeError):
        registry.counter("z")


def test_series_mean_is_sim_time_weighted():
    clock = FakeClock()
    registry = MetricsRegistry(clock=clock)
    series = registry.series("depth")
    series.record(10.0)       # depth 10 held over [0, 1)
    clock.now = 1.0
    series.record(0.0)        # depth 0 held over [1, 10)
    clock.now = 10.0
    # plain average would be 5; the weighted mean is 10*1/10 = 1
    assert series.mean() == pytest.approx(1.0)
    assert series.max == 10.0
    assert series.min == 0.0
    assert series.samples == 2


def test_reported_checks_surface_in_check_and_assert():
    registry = MetricsRegistry()
    # nothing reported: vacuously true
    assert registry.check_identities() == []
    registry.report("parts", [])
    assert registry.check_identities() == []
    registry.assert_identities()
    registry.report("other", ["5 != 2 + 4"])
    problems = registry.check_identities()
    assert problems == ["other: 5 != 2 + 4"]
    with pytest.raises(IdentityViolation):
        registry.assert_identities()


def test_rereporting_replaces_by_label():
    registry = MetricsRegistry()
    registry.report("same", ["stale problem"])
    registry.report("same", [])
    # only the latest outcome counts — and it held
    assert registry.check_identities() == []


def test_snapshot_is_flat_sorted_and_expands_series():
    clock = FakeClock()
    registry = MetricsRegistry(clock=clock)
    registry.add("b.count", 2)
    registry.set("a.gauge", 1.0)
    registry.record("c.depth", 4.0)
    clock.now = 2.0
    snap = registry.snapshot()
    # metric names emit in sorted order (series expand to a fixed
    # .last/.mean/.max/.samples quartet in place)
    assert list(snap) == ["a.gauge", "b.count", "c.depth.last",
                          "c.depth.mean", "c.depth.max", "c.depth.samples"]
    assert snap["a.gauge"] == 1.0
    assert snap["b.count"] == 2
    assert snap["c.depth.last"] == 4.0
    assert snap["c.depth.samples"] == 1
    assert snap["c.depth.max"] == 4.0
