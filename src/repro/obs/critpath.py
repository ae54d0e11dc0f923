"""Critical-path extraction with exact layer attribution.

Given a :class:`~repro.obs.trace.Tracer` run, rebuild the span DAG
(parent edges plus ``flow=True`` deferred-complete arrows) and extract,
per logical operation, the **simulated-time critical path**: the chain
of intervals that had to elapse, one after another, for the operation to
finish.  Every instant of the operation's end-to-end window is
attributed to exactly one of six named layers:

``client_compute``
    time the rank itself spent between waits: flattening, exchange
    bookkeeping, cache walks (self time of rank-lane spans).
``deferred_complete_overlap``
    the subset of ``client_compute`` that overlapped an in-flight
    deferred ``commit.complete`` (a ``flow=True`` span) — work the
    pipelined engine hid behind foreground compute.
``rpc_queueing``
    self time of RPC spans: request/response propagation and transport
    turnaround not covered by a link transmission or the server window.
``link_transfer``
    time inside network-lane spans (``net.link`` / ``net.tx`` /
    ``net.rx``): FIFO queueing plus serialization on a concrete link.
``shard_service``
    the server-side window of an RPC (``rpc.serve``): per-RPC handling
    overhead plus the handler body's own time.
``coalesce_park``
    self time of ``wait`` spans.  Only the metadata fetch-coalescing table
    emitted them (a rank parked on another's in-flight fetch), and it is
    gone: the layer reads 0, and stays so the reporting tuple is stable.

The walk is backward-greedy: inside a span's window it repeatedly picks
the child whose (clipped) end is latest, attributes the gap above it to
the parent's layer, recurses into the child, and continues from the
child's start — concurrent siblings overlapped by the chosen child are
skipped, exactly like a longest-path walk over the interval DAG.
Segments are constructed contiguously **sharing boundary floats**, so
:func:`assert_partition` checks the attribution tiles the end-to-end
window with exact float equality — no epsilon — which is the partition
identity the acceptance criterion pins.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "LAYERS",
    "DEFAULT_OPERATIONS",
    "PartitionError",
    "Segment",
    "SpanDag",
    "assert_partition",
    "critical_path",
    "layer_breakdown",
    "layer_of",
    "operation_report",
    "dump_report",
]

#: attribution layers, in reporting order
LAYERS = (
    "client_compute",
    "deferred_complete_overlap",
    "rpc_queueing",
    "link_transfer",
    "shard_service",
    "coalesce_park",
)

#: span names treated as logical-operation roots by :func:`operation_report`
DEFAULT_OPERATIONS = (
    "file.write_at_all",
    "file.read_at_all",
    "file.write_at",
    "file.read_at",
    "commit",
)


class PartitionError(AssertionError):
    """The attributed segments do not tile the operation window exactly."""


class Segment:
    """One attributed interval ``[start, end)`` of a critical path."""

    __slots__ = ("start", "end", "layer", "span_id", "name")

    def __init__(self, start: float, end: float, layer: str, span_id: int,
                 name: str):
        self.start = start
        self.end = end
        self.layer = layer
        self.span_id = span_id
        self.name = name

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Segment [{self.start}, {self.end}) {self.layer} "
                f"span={self.span_id} {self.name!r}>")


def layer_of(span) -> str:
    """The layer a span's *self time* belongs to."""
    if span.cat == "net":
        return "link_transfer"
    if span.name == "rpc.serve":
        return "shard_service"
    if span.cat == "rpc":
        return "rpc_queueing"
    if span.cat == "wait":
        return "coalesce_park"
    return "client_compute"


class SpanDag:
    """Parent/children index over a tracer's finished spans."""

    def __init__(self, spans: Iterable):
        #: finished spans only — an unfinished span has no interval to
        #: attribute (callers assert their traces are closed)
        self.spans = [span for span in spans if span.end is not None]
        self.by_id = {span.span_id: span for span in self.spans}
        self.children: Dict[int, List] = {}
        for span in self.spans:
            if span.parent_id is not None and span.parent_id in self.by_id:
                self.children.setdefault(span.parent_id, []).append(span)
        #: merged union of deferred-complete (``flow=True``) intervals,
        #: the windows ``client_compute`` splits against
        self.flow_intervals = _merge_intervals(
            [(span.start, span.end) for span in self.spans if span.flow])

    @classmethod
    def from_tracer(cls, tracer) -> "SpanDag":
        return cls(tracer.spans)

    def roots(self, names: Sequence[str]) -> List:
        """Finished spans whose name matches, in (start, span_id) order."""
        wanted = set(names)
        return sorted((span for span in self.spans if span.name in wanted),
                      key=lambda span: (span.start, span.span_id))


def _merge_intervals(intervals: List[Tuple[float, float]]
                     ) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            if end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged


# ----------------------------------------------------------------------
def _attribute(dag: SpanDag, span, lo: float, hi: float,
               segments: List[Segment]) -> None:
    """Backward-greedy cover of ``[lo, hi)`` of ``span``'s window."""
    layer = layer_of(span)
    kids = sorted(
        (child for child in dag.children.get(span.span_id, ())
         if not child.flow),
        key=lambda child: (child.end, child.start, child.span_id),
        reverse=True)
    t = hi
    for child in kids:
        if t <= lo:
            break
        if child.start >= t:
            # runs entirely under a concurrent sibling already chosen
            continue
        end = child.end if child.end < t else t
        if end <= lo:
            # sorted by end descending: nothing later reaches the window
            break
        if end < t:
            segments.append(Segment(end, t, layer, span.span_id, span.name))
        child_lo = child.start if child.start > lo else lo
        _attribute(dag, child, child_lo, end, segments)
        t = child_lo
    if t > lo:
        segments.append(Segment(lo, t, layer, span.span_id, span.name))


def _split_deferred_overlap(segments: List[Segment],
                            flow_intervals: List[Tuple[float, float]]
                            ) -> List[Segment]:
    """Recut ``client_compute`` segments against the deferred-complete
    union, reusing the union's boundary floats so the tiling stays exact."""
    if not flow_intervals:
        return segments
    out: List[Segment] = []
    for segment in segments:
        if segment.layer != "client_compute":
            out.append(segment)
            continue
        cursor = segment.start
        for window_start, window_end in flow_intervals:
            if window_end <= cursor:
                continue
            if window_start >= segment.end:
                break
            overlap_start = window_start if window_start > cursor else cursor
            overlap_end = (window_end if window_end < segment.end
                           else segment.end)
            if overlap_start > cursor:
                out.append(Segment(cursor, overlap_start, "client_compute",
                                   segment.span_id, segment.name))
            if overlap_end > overlap_start:
                out.append(Segment(overlap_start, overlap_end,
                                   "deferred_complete_overlap",
                                   segment.span_id, segment.name))
            cursor = overlap_end
            if cursor >= segment.end:
                break
        if cursor < segment.end:
            out.append(Segment(cursor, segment.end, "client_compute",
                               segment.span_id, segment.name))
    return out


def critical_path(source, root) -> List[Segment]:
    """The attributed critical path of ``root``'s window, sorted by start.

    ``source`` is a :class:`~repro.obs.trace.Tracer`, an iterable of
    spans, or a prebuilt :class:`SpanDag`.  The returned segments tile
    ``[root.start, root.end)`` exactly (:func:`assert_partition` runs
    before returning).
    """
    dag = source if isinstance(source, SpanDag) else \
        SpanDag(getattr(source, "spans", source))
    if root.end is None:
        raise PartitionError(f"root span {root!r} is still open")
    segments: List[Segment] = []
    _attribute(dag, root, root.start, root.end, segments)
    segments = _split_deferred_overlap(segments, dag.flow_intervals)
    segments.sort(key=lambda segment: (segment.start, segment.end))
    assert_partition(segments, root.start, root.end)
    return segments


def assert_partition(segments: List[Segment], lo: float, hi: float) -> None:
    """Exact-tiling check: contiguous, in order, spanning ``[lo, hi)``.

    Boundary comparisons are exact float equality — the walk constructs
    neighbouring segments from the *same* float values, so any gap or
    overlap is an attribution bug, not rounding.
    """
    if hi < lo:
        raise PartitionError(f"window [{lo}, {hi}) is negative")
    if lo == hi:
        if segments:
            raise PartitionError("empty window attributed segments")
        return
    if not segments:
        raise PartitionError(f"window [{lo}, {hi}) got no segments")
    cursor = lo
    for segment in segments:
        if segment.start != cursor:
            raise PartitionError(
                f"gap/overlap at {cursor!r}: next segment starts at "
                f"{segment.start!r} ({segment!r})")
        if segment.end < segment.start:
            raise PartitionError(f"negative segment {segment!r}")
        cursor = segment.end
    if cursor != hi:
        raise PartitionError(
            f"segments end at {cursor!r}, window ends at {hi!r}")


def layer_breakdown(segments: List[Segment]) -> Dict[str, float]:
    """Per-layer time sums over one path; every layer key always present.

    ``total`` is defined as the sum of the layer values (in ``LAYERS``
    order), so ``sum(layers) == total`` holds exactly by construction.
    """
    sums = {layer: 0.0 for layer in LAYERS}
    for segment in segments:
        sums[segment.layer] += segment.duration
    sums["total"] = sum(sums[layer] for layer in LAYERS)
    return sums


# ----------------------------------------------------------------------
def operation_report(source,
                     operations: Sequence[str] = DEFAULT_OPERATIONS,
                     ) -> Dict[str, object]:
    """Aggregated per-operation critical-path breakdown of a traced run.

    For every finished span whose name is in ``operations``, extract its
    critical path (asserting the exact partition) and aggregate per
    operation name: occurrence count, summed end-to-end window and
    summed per-layer attribution.  The result is JSON-ready and — since
    every number derives from the simulation clock — byte-stable across
    reruns of the same seed.
    """
    dag = source if isinstance(source, SpanDag) else \
        SpanDag(getattr(source, "spans", source))
    report: Dict[str, object] = {"layers": list(LAYERS), "operations": {}}
    ops: Dict[str, Dict[str, object]] = report["operations"]
    for root in dag.roots(operations):
        segments = critical_path(dag, root)
        breakdown = layer_breakdown(segments)
        end_to_end = root.end - root.start
        entry = ops.get(root.name)
        if entry is None:
            entry = ops[root.name] = {
                "count": 0,
                "end_to_end_s": 0.0,
                "attributed_s": 0.0,
                "layers": {layer: 0.0 for layer in LAYERS},
            }
        entry["count"] += 1
        entry["end_to_end_s"] += end_to_end
        entry["attributed_s"] += breakdown["total"]
        for layer in LAYERS:
            entry["layers"][layer] += breakdown[layer]
        if not math.isclose(breakdown["total"], end_to_end,
                            rel_tol=1e-9, abs_tol=1e-12):
            raise PartitionError(
                f"{root.name} span {root.span_id}: layers sum to "
                f"{breakdown['total']!r}, window is {end_to_end!r}")
    return report


def dump_report(source, path: str,
                operations: Sequence[str] = DEFAULT_OPERATIONS,
                ) -> Dict[str, object]:
    """Write :func:`operation_report` as deterministic JSON."""
    report = operation_report(source, operations)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return report
