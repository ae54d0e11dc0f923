"""Generator-based simulated processes.

A process wraps a Python generator.  Each ``yield`` hands an
:class:`~repro.simengine.events.Event` back to the engine; the process is
suspended until that event is processed, at which point the event's value is
sent into the generator (or its exception thrown into it).  When the
generator returns, the process — which is itself an event — succeeds with the
return value, so other processes can wait for it or collect its result.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.simengine.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simengine.simulator import Simulator


class Process(Event):
    """A running simulated process (and the event of its termination).

    Parameters
    ----------
    sim:
        Owning simulator.
    generator:
        The generator to drive.  It must yield :class:`Event` instances.
    name:
        Optional human-readable name used in error messages and tracing.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?")
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")

        # Kick-start the process via an immediately-triggered bootstrap event.
        bootstrap = Event(sim)
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.callbacks.append(self._resume)
        sim.schedule(bootstrap, priority=sim.PRIORITY_URGENT)

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Drive the generator one step with the outcome of ``event``."""
        try:
            if event._ok:
                yielded = self._generator.send(event._value)
            else:
                # Mark the failure as handled: it is being delivered to a
                # process, which may catch it.
                event._defused = True
                yielded = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(yielded, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {yielded!r}; "
                "processes must yield Event instances")
            try:
                self._generator.throw(error)
            except StopIteration as stop:
                self.succeed(stop.value)
            except BaseException as exc:
                self.fail(exc)
            return

        if yielded.sim is not self.sim:
            self.fail(SimulationError(
                f"process {self.name!r} yielded an event from another simulator"))
            return

        yielded.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"


class Fanout(Event):
    """Run several generators concurrently as one scheduler transaction.

    Semantically ``AllOf([sim.process(g) for g in generators])`` — every
    branch starts at the current instant in list order, the fanout succeeds
    with the list of branch return values once all complete, and fails as
    soon as any branch fails (later sibling failures are absorbed, exactly
    like a condition's) — but the K bootstrap events, K process-termination
    events and the condition bookkeeping collapse into one bootstrap event
    plus this event.  This is the shape of every RPC fan-out: one client
    hitting K shards and continuing when the slowest answers.
    """

    __slots__ = ("results", "_remaining")

    def __init__(self, sim: "Simulator", generators):
        super().__init__(sim)
        branches = [_Branch(self, index, generator)
                    for index, generator in enumerate(generators)]
        self.results: list = [None] * len(branches)
        self._remaining = len(branches)
        if not branches:
            self.succeed(self.results)
            return
        bootstrap = Event(sim)
        bootstrap._ok = True
        bootstrap._value = None
        for branch in branches:
            bootstrap.callbacks.append(branch._step)
        sim.schedule(bootstrap, priority=sim.PRIORITY_URGENT)

    def _done(self, index: int, value: Any) -> None:
        self.results[index] = value
        self._remaining -= 1
        if self._remaining == 0 and not self.triggered:
            self.succeed(self.results)

    def _failed(self, exc: BaseException) -> None:
        # first failure propagates to the waiter; siblings' failures after
        # that are absorbed, mirroring AllOf._check
        if not self.triggered:
            self.fail(exc)


class _Branch:
    """One generator driven inside a :class:`Fanout` (not itself an event)."""

    __slots__ = ("_fanout", "_index", "_generator")

    def __init__(self, fanout: Fanout, index: int, generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Fanout requires generators, got {type(generator).__name__}")
        self._fanout = fanout
        self._index = index
        self._generator = generator

    def _step(self, event: Event) -> None:
        try:
            if event._ok:
                yielded = self._generator.send(event._value)
            else:
                event._defused = True
                yielded = self._generator.throw(event._value)
        except StopIteration as stop:
            self._fanout._done(self._index, stop.value)
            return
        except BaseException as exc:
            self._fanout._failed(exc)
            return
        if not isinstance(yielded, Event) or yielded.sim is not self._fanout.sim:
            self._fanout._failed(SimulationError(
                f"fanout branch yielded {yielded!r}; branches must yield "
                "events of the owning simulator"))
            return
        yielded.add_callback(self._step)
