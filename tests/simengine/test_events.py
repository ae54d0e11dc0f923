"""Unit tests for the event primitives."""

import pytest

from repro.errors import SimulationError
from repro.simengine import Simulator


def test_event_starts_pending():
    sim = Simulator()
    event = sim.event()
    assert not event.triggered
    assert not event.processed
    assert event.ok is None


def test_event_succeed_carries_value():
    sim = Simulator()
    event = sim.event()
    event.succeed(42)
    assert event.triggered
    assert event.ok is True
    assert event.value == 42


def test_event_fail_carries_exception():
    sim = Simulator()
    event = sim.event()
    exc = RuntimeError("boom")
    event.fail(exc)
    assert event.triggered
    assert event.ok is False
    assert event.value is exc


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(RuntimeError())


def test_fail_requires_exception_instance():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_callback_after_processing_runs_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("done")
    sim.run_all()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == ["done"]


def test_timeout_fires_at_requested_time():
    sim = Simulator()
    fired_at = []

    def proc():
        yield sim.timeout(2.5)
        fired_at.append(sim.now)

    sim.process(proc())
    sim.run_all()
    assert fired_at == [2.5]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_timeout_value_passthrough():
    sim = Simulator()
    results = []

    def proc():
        value = yield sim.timeout(1, value="hello")
        results.append(value)

    sim.process(proc())
    sim.run_all()
    assert results == ["hello"]


def test_all_of_waits_for_every_child():
    sim = Simulator()
    order = []

    def waiter():
        yield sim.all_of([sim.timeout(1), sim.timeout(3), sim.timeout(2)])
        order.append(sim.now)

    sim.process(waiter())
    sim.run_all()
    assert order == [3]


def test_all_of_empty_is_immediately_satisfied():
    sim = Simulator()
    done = []

    def waiter():
        yield sim.all_of([])
        done.append(sim.now)

    sim.process(waiter())
    sim.run_all()
    assert done == [0.0]


def test_condition_value_maps_events_to_values():
    sim = Simulator()
    collected = {}

    def waiter():
        t1 = sim.timeout(1, value="a")
        t2 = sim.timeout(2, value="b")
        result = yield sim.all_of([t1, t2])
        collected.update(result)

    sim.process(waiter())
    sim.run_all()
    assert sorted(collected.values()) == ["a", "b"]
