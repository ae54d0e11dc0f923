"""Unit tests for generator-based processes."""

import pytest

from repro.errors import SimulationError
from repro.simengine import Simulator


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_return_value_is_event_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        return 123

    p = sim.process(proc())
    sim.run_all()
    assert p.value == 123


def test_process_waits_on_another_process():
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(2)
        log.append(("child", sim.now))
        return "child-result"

    def parent():
        result = yield sim.process(child())
        log.append(("parent", sim.now, result))

    sim.process(parent())
    sim.run_all()
    assert log == [("child", 2), ("parent", 2, "child-result")]


def test_exception_in_waited_process_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1)
        raise RuntimeError("child failed")

    def parent():
        try:
            yield sim.process(child())
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run_all()
    assert caught == ["child failed"]


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run_all()


def test_is_alive_reflects_lifecycle():
    sim = Simulator()

    def proc():
        yield sim.timeout(5)

    p = sim.process(proc())
    assert p.is_alive
    sim.run_all()
    assert not p.is_alive


def test_many_processes_complete():
    sim = Simulator()
    done = []

    def worker(index):
        yield sim.timeout(index % 7 + 1)
        done.append(index)

    for index in range(200):
        sim.process(worker(index))
    sim.run_all()
    assert sorted(done) == list(range(200))
