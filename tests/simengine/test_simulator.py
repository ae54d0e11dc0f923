"""Unit tests for the simulator event loop."""

import pytest

from repro.errors import SimulationError
from repro.simengine import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_run_until_stops_clock_at_bound():
    sim = Simulator()

    def proc():
        yield sim.timeout(10)

    sim.process(proc())
    sim.run(until=4)
    assert sim.now == 4


def test_run_with_stop_event_returns_its_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(3)
        return "result"

    main = sim.process(proc())
    assert sim.run(stop_event=main) == "result"
    assert sim.now == 3


def test_run_stop_event_from_other_simulator_rejected():
    sim_a, sim_b = Simulator(), Simulator()
    foreign = sim_b.event()
    with pytest.raises(SimulationError):
        sim_a.run(stop_event=foreign)


def test_run_raises_if_stop_event_never_fires():
    sim = Simulator()
    never = sim.event()

    def proc():
        yield sim.timeout(1)

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run(stop_event=never)


def test_step_on_empty_queue_raises():
    with pytest.raises(SimulationError):
        Simulator().step()


def test_same_time_events_processed_in_creation_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1)
        order.append(tag)

    for tag in ["a", "b", "c"]:
        sim.process(proc(tag))
    sim.run_all()
    assert order == ["a", "b", "c"]


def test_determinism_across_runs():
    def build_and_run(seed):
        sim = Simulator(seed=seed)
        trace = []

        def worker(name):
            for _ in range(3):
                delay = float(sim.rng.stream(f"delay:{name}").uniform(0.1, 1.0))
                yield sim.timeout(delay)
                trace.append((name, round(sim.now, 9)))

        for name in ("w0", "w1", "w2"):
            sim.process(worker(name))
        sim.run_all()
        return trace

    assert build_and_run(7) == build_and_run(7)
    assert build_and_run(7) != build_and_run(8)


def test_unhandled_process_failure_propagates():
    sim = Simulator()

    def crashing():
        yield sim.timeout(1)
        raise ValueError("crash")

    sim.process(crashing())
    with pytest.raises(ValueError, match="crash"):
        sim.run_all()


def test_processed_event_counter_increases():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        yield sim.timeout(1)

    sim.process(proc())
    sim.run_all()
    assert sim.processed_events >= 3
