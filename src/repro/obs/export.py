"""Chrome trace-event JSON export and schema validation.

The exporter maps spans onto the trace-event format's process/thread
lanes: one *process* per lane group (ranks, nodes, shards, links) and one
*thread* per lane, named through ``"M"`` metadata events — load the file
in ``chrome://tracing`` or https://ui.perfetto.dev and every rank, shard
and link renders as its own labelled track.  Spans become ``"X"``
(complete) events with microsecond timestamps taken from the simulation
clock; link telemetry becomes ``"C"`` (counter) tracks.  Everything about
the output is deterministic: lane numbering is sorted, span order is
span-id order, and no wall-clock value appears anywhere — the same run
produces the same bytes.

:func:`validate_chrome_trace` is the schema gate the test-suite and the
CI trace-smoke job run over exported files.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

__all__ = ["to_chrome_trace", "dump_chrome_trace", "validate_chrome_trace",
           "span_chains"]

#: lane groups in display order; unknown groups sort after, alphabetically
_GROUP_ORDER = ("rank", "node", "shard", "link")


def _lane_map(lanes) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """Deterministic ``lane -> (pid, tid)`` assignment."""
    groups: Dict[str, List[str]] = {}
    for group, name in lanes:
        names = groups.setdefault(group, [])
        if name not in names:
            names.append(name)
    ordered = [group for group in _GROUP_ORDER if group in groups]
    ordered += sorted(group for group in groups if group not in _GROUP_ORDER)
    mapping: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for pid, group in enumerate(ordered, start=1):
        # sort short-names-first so rank "sc2" precedes "sc10"
        for tid, name in enumerate(sorted(groups[group],
                                          key=lambda n: (len(n), n)),
                                   start=1):
            mapping[(group, name)] = (pid, tid)
    return mapping


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def to_chrome_trace(tracer, telemetry=None) -> Dict:
    """Render a tracer (and optional link telemetry) as a trace-event dict.

    Open spans are skipped (a finished run has none; the validator treats
    their presence in ``tracer.spans`` as the caller's bug to assert on).
    """
    spans = tracer.finished_spans()
    lanes = [span.lane for span in spans]
    if telemetry is not None:
        lanes += [("link", name) for name in telemetry.samples]
    mapping = _lane_map(lanes)

    events: List[Dict] = []
    for (group, name), (pid, tid) in sorted(mapping.items(),
                                            key=lambda item: item[1]):
        if tid == 1:
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": f"{group}s"}})
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": f"{group}:{name}"}})

    for span in spans:
        pid, tid = mapping[span.lane]
        args = dict(span.args or {})
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.flow:
            args["flow"] = True
        events.append({
            "ph": "X", "name": span.name, "cat": span.cat,
            "ts": _us(span.start), "dur": _us(span.end - span.start),
            "pid": pid, "tid": tid, "args": args,
        })

    if telemetry is not None:
        for name in sorted(telemetry.samples):
            pid, tid = mapping[("link", name)]
            for sample in telemetry.samples[name]:
                events.append({
                    "ph": "C", "name": f"queue_delay_us {name}",
                    "ts": _us(sample.ts), "pid": pid, "tid": 0,
                    "args": {"queue_delay_us": _us(sample.queue_delay)},
                })

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_chrome_trace(tracer, path, telemetry=None) -> Dict:
    trace = to_chrome_trace(tracer, telemetry=telemetry)
    with open(path, "w") as handle:
        json.dump(trace, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return trace


# ----------------------------------------------------------------------
def validate_chrome_trace(trace) -> List[str]:
    """Check a trace-event dict (or JSON string) against the schema.

    Returns one message per violation; an empty list means the trace is
    loadable by ``chrome://tracing``/Perfetto and causally well-formed:
    every event carries the required fields, every ``X`` span has a
    non-negative duration and a unique ``span_id``, and every
    ``parent_id`` refers to a span in the same file.
    """
    problems: List[str] = []
    if isinstance(trace, (str, bytes)):
        try:
            trace = json.loads(trace)
        except ValueError as exc:
            return [f"not JSON: {exc}"]
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["top level must be an object with a traceEvents array"]
    events = trace["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents must be an array"]

    span_ids = set()
    parent_refs: List[Tuple[int, int]] = []
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "C", "M"):
            problems.append(f"{where}: unsupported ph {ph!r}")
            continue
        for field in ("name", "pid", "tid"):
            if field not in event:
                problems.append(f"{where}: missing {field!r}")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if ph == "C":
            if not isinstance(event.get("args"), dict):
                problems.append(f"{where}: counter event needs args")
            continue
        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            problems.append(f"{where}: bad dur {dur!r}")
        args = event.get("args")
        if not isinstance(args, dict) or "span_id" not in args:
            problems.append(f"{where}: X event needs args.span_id")
            continue
        span_id = args["span_id"]
        if not isinstance(span_id, int):
            problems.append(f"{where}: span_id must be an int")
            continue
        if span_id in span_ids:
            problems.append(f"{where}: duplicate span_id {span_id}")
        span_ids.add(span_id)
        parent = args.get("parent_id")
        if parent is not None:
            if not isinstance(parent, int):
                problems.append(f"{where}: parent_id must be an int")
            else:
                parent_refs.append((index, parent))

    for index, parent in parent_refs:
        if parent not in span_ids:
            problems.append(
                f"event {index}: parent_id {parent} matches no span")
    return problems


# ----------------------------------------------------------------------
def span_chains(tracer) -> Dict[int, List]:
    """``span_id -> [root, ..., span]`` ancestry chains (test helper:
    the acceptance criterion counts layers as the longest chain).

    Chains are inserted in ``(start, span_id)`` order — timestamp-major
    with the span id as a stable tiebreak — so consumers iterating the
    dict (critpath reports, chain dumps) see the same order however the
    spans were appended to the tracer.
    """
    by_id = {span.span_id: span for span in tracer.spans}
    chains: Dict[int, List] = {}
    resolved: Dict[int, List] = {}

    def chain(span):
        cached = resolved.get(span.span_id)
        if cached is not None:
            return cached
        if span.parent_id is None or span.parent_id not in by_id:
            result = [span]
        else:
            result = chain(by_id[span.parent_id]) + [span]
        resolved[span.span_id] = result
        return result

    for span in sorted(tracer.spans,
                       key=lambda span: (span.start, span.span_id)):
        chains[span.span_id] = chain(span)
    return chains
