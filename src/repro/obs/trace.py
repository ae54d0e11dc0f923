"""Causal spans on the simulation clock.

A :class:`Span` is one timed interval on a *lane* — a ``(group, name)``
pair such as ``("rank", "sc3")``, ``("shard", "meta0")`` or
``("link", "egress:sc-rank0")`` — carrying a parent id, a category and
small structured args.  The :class:`Tracer` collects them; span ids are
sequential, timestamps come exclusively from the simulation clock, and no
wall-clock value ever enters a span, so two runs of the same seed produce
byte-identical traces.

Parenting model
---------------
Each rank's operations are sequential within its own simulated process, so
a per-actor :class:`TraceContext` keeps a *stack* of open spans and parents
new ones under the top by default.  Anything that executes concurrently
within a rank (upload fanouts, the pipelined ticket process, deferred
completes) must **not** touch the stack: those sites use
:meth:`TraceContext.begin_detached` with an explicit parent.  A detached span whose interval may outlive its parent
(a deferred complete) is marked ``flow=True`` — causally linked, but
exempt from interval nesting.

Disabled tracing has no tracer at all: ``Observability.tracer`` is
``None``, call sites hold ``trace_ctx = None`` and guard with a single
attribute test, so the disabled path allocates nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer", "TraceContext"]

Lane = Tuple[str, str]


class Span:
    """One timed interval; ``end`` is ``None`` while the span is open."""

    __slots__ = ("span_id", "parent_id", "name", "cat", "lane",
                 "start", "end", "args", "flow")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 cat: str, lane: Lane, start: float,
                 args: Optional[Dict], flow: bool = False):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.lane = lane
        self.start = start
        self.end: Optional[float] = None
        self.args = args
        self.flow = flow

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.span_id} {self.name!r} lane={self.lane} "
                f"[{self.start}, {self.end}) parent={self.parent_id}>")


class Tracer:
    """Collects spans on the simulation clock."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        #: every span ever begun, in span-id order (open spans included)
        self.spans: List[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    def begin_span(self, name: str, cat: str, lane: Lane,
                   parent_id: Optional[int] = None,
                   args: Optional[Dict] = None, flow: bool = False) -> Span:
        span = Span(self._next_id, parent_id, name, cat, lane,
                    self.clock(), args, flow)
        self._next_id += 1
        self.spans.append(span)
        return span

    def end_span(self, span: Span, args: Optional[Dict] = None) -> None:
        span.end = self.clock()
        if args:
            span.args = {**(span.args or {}), **args}

    def complete_span(self, name: str, cat: str, lane: Lane, start: float,
                      end: float, parent_id: Optional[int] = None,
                      args: Optional[Dict] = None) -> Span:
        """Record an already-timed interval (network link reservations:
        the analytic model computes start/done without sleeping there)."""
        span = Span(self._next_id, parent_id, name, cat, lane, start, args)
        self._next_id += 1
        span.end = end
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    def context(self, lane: Lane, **attrs) -> "TraceContext":
        """A per-actor context whose spans all land on ``lane``."""
        return TraceContext(self, lane, attrs)

    def finished_spans(self) -> List[Span]:
        return [span for span in self.spans if span.end is not None]


class TraceContext:
    """Span stack of one sequential actor (one rank process).

    ``begin``/``finish`` maintain the stack for the actor's *mainline*
    flow; concurrent work inside the same rank uses ``begin_detached``
    with an explicit parent and never touches the stack.
    """

    __slots__ = ("tracer", "lane", "attrs", "stack")

    def __init__(self, tracer: Tracer, lane: Lane, attrs: Dict):
        self.tracer = tracer
        self.lane = lane
        self.attrs = attrs
        self.stack: List[Span] = []

    @property
    def current(self) -> Optional[Span]:
        return self.stack[-1] if self.stack else None

    def current_id(self) -> Optional[int]:
        return self.stack[-1].span_id if self.stack else None

    # ------------------------------------------------------------------
    def begin(self, name: str, cat: str = "op",
              lane: Optional[Lane] = None, **args) -> Span:
        """Open a mainline span under the current stack top and push it."""
        span = self.tracer.begin_span(
            name, cat, lane or self.lane, parent_id=self.current_id(),
            args={**self.attrs, **args} if (self.attrs or args) else None)
        self.stack.append(span)
        return span

    def finish(self, span: Span, **args) -> None:
        """Close a mainline span; pops it (and, defensively, anything an
        exception path left open above it)."""
        while self.stack and self.stack[-1] is not span:
            self.stack.pop()
        if self.stack:
            self.stack.pop()
        self.tracer.end_span(span, args or None)

    # ------------------------------------------------------------------
    def begin_detached(self, name: str, cat: str = "op",
                       parent: Optional[Span] = None,
                       lane: Optional[Lane] = None, flow: bool = False,
                       **args) -> Span:
        """Open a span with an explicit parent, outside the stack — for
        work that runs concurrently within the rank."""
        if parent is None:
            parent_id = None
        else:
            parent_id = parent.span_id
        return self.tracer.begin_span(
            name, cat, lane or self.lane, parent_id=parent_id,
            args={**self.attrs, **args} if (self.attrs or args) else None,
            flow=flow)

    def end(self, span: Span, **args) -> None:
        """Close a detached span (no stack interaction)."""
        self.tracer.end_span(span, args or None)
