"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot occurrence.  It starts *pending*, is
*triggered* exactly once (either successfully with a value, or with a
failure carrying an exception), gets scheduled on the simulator queue, and is
finally *processed* when the simulator pops it and runs its callbacks.

Processes (see :mod:`repro.simengine.process`) suspend by yielding events;
the process object registers itself as a callback and is resumed with the
event's value (or the exception is thrown into the generator).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simengine.simulator import Simulator


class _Pending:
    """Sentinel for "this event has not been triggered yet"."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """A one-shot event living on a :class:`~repro.simengine.simulator.Simulator`.

    Parameters
    ----------
    sim:
        The simulator that will eventually process this event.

    Notes
    -----
    The lifecycle is ``pending -> triggered -> processed``.  Calling
    :meth:`succeed` or :meth:`fail` moves the event to *triggered* and puts it
    on the simulator queue at the current simulated time (unless a delay was
    requested through :meth:`Simulator.schedule`).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the simulator has run the callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or the failure exception."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` and schedule it."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception`` and schedule it."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror the outcome of another (already triggered) event.

        Used as a callback so that chained events propagate success/failure.
        """
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed.

        If the event was already processed the callback runs immediately;
        this keeps "wait on an already-completed operation" race-free.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` units of simulated time in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim.schedule(self, delay=delay)

    # Timeouts are triggered at construction time; succeed/fail are invalid.
    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("a Timeout is triggered at construction time")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("a Timeout is triggered at construction time")


class _Sleep(Event):
    """A pooled, engine-internal timeout (see :meth:`Simulator.sleep`).

    Unlike :class:`Timeout`, processed instances are recycled by the
    simulator, so hot paths that sleep millions of times allocate a handful
    of objects.  The contract: a sleep must be yielded immediately by exactly
    one process and never stored, waited on twice, or combined into
    conditions.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", value: Any = None):
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False


class Condition(Event):
    """An event that fires when a boolean condition over child events holds.

    Parameters
    ----------
    sim:
        The owning simulator.
    evaluate:
        Callable ``(events, triggered_count) -> bool`` deciding whether the
        condition is satisfied.
    events:
        The child events observed by the condition.

    The condition *fails* as soon as any child fails, mirroring SimPy.
    Its success value is a dict mapping each already-triggered child event to
    its value, so callers can recover individual results.
    """

    def __init__(
        self,
        sim: "Simulator",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ):
        super().__init__(sim)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.sim is not sim:
                raise SimulationError(
                    "all events of a Condition must belong to the same simulator")

        if not self._events:
            # An empty condition is trivially satisfied.
            self.succeed(self._collect())
            return

        for event in self._events:
            event.add_callback(self._check)

    def _collect(self) -> dict:
        return {
            event: event._value
            for event in self._events
            if event.triggered and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok and self._ok is False:
                # the condition already propagated a failure; absorb sibling
                # failures so they do not escalate past whoever handles ours
                event._defused = True
            return
        if not event._ok:
            # the failure is being delivered through the condition (and on to
            # whatever process waits on it), so the child event is handled
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect())


class AllOf(Condition):
    """Condition satisfied when *all* child events have fired successfully."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, lambda evts, count: count >= len(evts), events)


class AnyOf(Condition):
    """Condition satisfied when *any* child event has fired successfully."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, lambda evts, count: count >= 1, events)
