"""Unit tests of the unified metrics registry."""

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    IdentityViolation,
    MetricsRegistry,
)


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
    with pytest.raises(TypeError):
        registry.gauge("x")
    with pytest.raises(TypeError):
        registry.counter("y")


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
    registry = MetricsRegistry()
    registry.add("b.count", 2)
    registry.set("a.gauge", 1.0)
    registry.digest("c.latency").record(1e-3)
    snap = registry.snapshot()
    # metric names emit in sorted order (digests expand to a fixed
    # .count/.p50/.p95/.p99/.max quintet in place)
    assert list(snap) == ["a.gauge", "b.count", "c.latency.count",
                          "c.latency.p50", "c.latency.p95", "c.latency.p99",
                          "c.latency.max"]
    assert snap["a.gauge"] == 1.0
    assert snap["b.count"] == 2
    assert snap["c.latency.count"] == 1
    assert snap["c.latency.max"] == 1e-3
