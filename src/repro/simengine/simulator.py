"""The discrete-event simulator: event queue and simulated clock."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.simengine.events import AllOf, Event, Timeout, _Sleep
from repro.simengine.process import Fanout, Process
from repro.simengine.rand import DeterministicRNG

#: recycled :class:`_Sleep` instances kept per simulator
_SLEEP_POOL_CAP = 128

_INF = float("inf")


class Simulator:
    """Event loop, priority queue and clock of the simulation.

    The simulator owns a binary heap of ``(time, priority, sequence, event)``
    entries.  ``sequence`` is a monotonically increasing tie-breaker that
    makes the execution order of same-time events deterministic (insertion
    order), which in turn makes every benchmark run reproducible.  Nothing
    leaves the heap except by being processed: every entry is pending work.

    Parameters
    ----------
    seed:
        Root seed for :class:`~repro.simengine.rand.DeterministicRNG`.  Every
        component that needs randomness derives a named stream from it.
    """

    #: priority used by normal events
    PRIORITY_NORMAL = 1
    #: priority used by urgent (engine-internal) events
    PRIORITY_URGENT = 0

    def __init__(self, seed: int = 0):
        self._now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        self._sleep_pool: list = []
        self.rng = DeterministicRNG(seed)
        #: number of events processed so far (useful for debugging/metrics)
        self.processed_events: int = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # ------------------------------------------------------------------
    # event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event` bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` simulated time units from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Event:
        """A pooled timeout for hot paths.

        Semantically identical to :meth:`timeout`, but processed instances
        are recycled.  The returned event must be yielded immediately by
        exactly one process — never stored, shared, or put in a condition.
        """
        if delay < 0:
            raise SimulationError(f"negative sleep delay: {delay!r}")
        pool = self._sleep_pool
        if pool:
            ev = pool.pop()
            ev.callbacks = []
            ev._value = value
        else:
            ev = _Sleep(self, value)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self._now + delay, self.PRIORITY_NORMAL, seq, ev))
        return ev

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start running ``generator`` as a simulated process."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Event that fires when all ``events`` have fired successfully."""
        return AllOf(self, events)

    def fanout(self, generators) -> Fanout:
        """Run ``generators`` concurrently; the returned event fires with the
        list of their return values when the slowest finishes.  Equivalent to
        ``all_of`` over one process per generator, but the whole fan-out is
        one scheduler transaction (a single bootstrap event) — the cheap way
        to hit K shards in parallel."""
        return Fanout(self, generators)

    # ------------------------------------------------------------------
    # scheduling and stepping
    # ------------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Put a triggered event on the queue ``delay`` units in the future."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self._now + delay, priority, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    @property
    def pending(self) -> int:
        """Number of scheduled events."""
        return len(self._heap)

    def step(self) -> None:
        """Process exactly one event (advancing the clock to its time)."""
        heap = self._heap
        if not heap:
            raise SimulationError("step() on an empty event queue")
        when, _priority, _seq, event = heappop(heap)
        self._now = when
        self.processed_events += 1

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive; cannot happen
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)

        if event._ok:
            if event.__class__ is _Sleep and len(self._sleep_pool) < _SLEEP_POOL_CAP:
                self._sleep_pool.append(event)
        elif not event._defused:
            # An unhandled failure (nobody waited on the event): surface it so
            # bugs in simulated services do not silently disappear.
            raise event._value

    def run(self, until: Optional[float] = None,
            stop_event: Optional[Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this value.  ``None`` means
            run until the event queue drains.
        stop_event:
            Stop as soon as this event has been processed and return its
            value.  Typically the :class:`Process` of a "main" driver.

        Returns
        -------
        The value of ``stop_event`` if given and triggered, else ``None``.
        """
        if stop_event is not None and stop_event.sim is not self:
            raise SimulationError("stop_event belongs to a different simulator")

        while self._heap:
            if stop_event is not None and stop_event.processed:
                break
            if until is not None and self.peek() > until:
                self._now = until
                break
            self.step()

        if stop_event is not None:
            if not stop_event.triggered:
                if until is None:
                    raise SimulationError(
                        "run() finished but stop_event never triggered "
                        "(deadlocked processes?)")
                return None
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        return None

    def run_all(self, max_events: int = 50_000_000) -> None:
        """Drain the queue completely (with a safety cap on event count)."""
        count = 0
        while self._heap:
            self.step()
            count += 1
            if count > max_events:
                raise SimulationError(
                    f"run_all() exceeded {max_events} events; "
                    "likely a livelocked process")
