"""Cross-run artifact comparison with per-metric tolerance bands.

Compares two registry snapshots or ``BENCH_*.json`` artifacts and
classifies every leaf value into one of three rule families:

* **exact** (the default) — simulation-derived values: sim-time columns,
  RPC/event counters, digests, percentile columns, settings.  Two runs
  of the same code must agree byte-for-byte; any difference is a
  regression.
* **wall band** — host-wall-clock-derived values (``wall_clock_s``,
  ``events_per_sec`` and friends): noisy and host-dependent, so they
  only regress when they worsen beyond a multiplicative band
  (``--wall-band``, default 4x — wide enough for cross-host CI,
  tight enough to catch an accidental O(n^2)).  Direction-aware:
  ``events_per_sec`` regresses downward, everything else upward.
  Improvements never flag, and a non-positive baseline
  (a ``tracing_overhead_pct`` that came out negative) has no band to
  apply: a change from it is reported as a note.  So is a value beyond
  the band whose baseline *timing* ran for less than
  :data:`MIN_GATED_WALL_S` — the ``wall_clock_s`` of the same row, or for
  a value derived outside any row the longest ``wall_clock_s`` among the
  baseline's rows: a 4x band around ~10 ms of smoke-suite wall clock is
  scheduler noise, not a gate (host time is ``perfbench``'s job).
* **ignore** — provenance that legitimately differs between runs
  (the ``python`` version).

``BENCH_*`` artifacts key their ``rows`` list by each row's ``label``
before flattening, so a reordered artifact still compares row-to-row
and a message names the row it fired in.  :func:`compare_files` returns
a JSON-ready report; the CLI (``python -m repro.obs diff``) exits
non-zero when any regression survives — the CI perf-regression gate.
"""

from __future__ import annotations

import fnmatch
import json
from typing import Dict, List, Optional, Sequence

__all__ = ["DEFAULT_WALL_BAND", "MIN_GATED_WALL_S", "DEFAULT_WALL_PATTERNS",
           "DEFAULT_IGNORE_PATTERNS", "flatten", "compare",
           "compare_files", "write_report"]

#: default multiplicative tolerance for wall-clock-family values
DEFAULT_WALL_BAND = 4.0

#: a wall-family value can only regress when the baseline timing behind it
#: ran at least this long; below it, leaving the band is a note
MIN_GATED_WALL_S = 1.0

#: dotted-path patterns treated as host-wall-clock-derived (banded)
DEFAULT_WALL_PATTERNS = (
    "*wall_clock_s*",
    "*wall_clock*",
    "*events_per_sec",
    "*tracing_overhead_pct",
)

#: dotted-path patterns never compared (run provenance)
DEFAULT_IGNORE_PATTERNS = (
    "python",
)

#: higher is better for these (regress downward); the rest of the wall
#: family regresses upward
_HIGHER_IS_BETTER = ("*events_per_sec",)


def _rows_by_label(rows: List) -> Optional[Dict[str, object]]:
    """``rows`` keyed by label when every entry is a labelled dict."""
    if not rows or not all(isinstance(row, dict) and "label" in row
                           for row in rows):
        return None
    keyed: Dict[str, object] = {}
    for row in rows:
        label = str(row["label"])
        if label in keyed:  # duplicate labels: fall back to indices
            return None
        keyed[label] = row
    return keyed


def flatten(value, prefix: str = "",
            out: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Leaf values under dotted paths; ``rows`` lists keyed by label."""
    if out is None:
        out = {}
    if isinstance(value, dict):
        for key in value:
            path = f"{prefix}.{key}" if prefix else str(key)
            flatten(value[key], path, out)
    elif isinstance(value, list):
        keyed = _rows_by_label(value)
        if keyed is not None:
            for label, row in keyed.items():
                flatten(row, f"{prefix}[{label}]", out)
        else:
            for index, item in enumerate(value):
                flatten(item, f"{prefix}[{index}]", out)
    else:
        out[prefix] = value
    return out


def _matches(path: str, patterns: Sequence[str]) -> bool:
    return any(fnmatch.fnmatch(path, pattern) for pattern in patterns)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _timing_behind(path: str, flat: Dict[str, object]) -> Optional[float]:
    """Baseline wall-clock seconds a wall-family value was derived from:
    its row's ``wall_clock_s`` (itself, for that column), else the longest
    ``wall_clock_s`` of any row; ``None`` when the baseline records none."""
    row = path.rpartition(".")[0]
    sibling = flat.get(f"{row}.wall_clock_s" if row else "wall_clock_s")
    if _is_number(sibling):
        return sibling
    timings = [value for key, value in flat.items()
               if key.startswith("rows[") and key.endswith("].wall_clock_s")
               and _is_number(value)]
    return max(timings, default=None)


def compare(baseline: Dict, current: Dict, *,
            wall_band: float = DEFAULT_WALL_BAND,
            wall_patterns: Sequence[str] = DEFAULT_WALL_PATTERNS,
            ignore_patterns: Sequence[str] = DEFAULT_IGNORE_PATTERNS,
            ) -> Dict[str, object]:
    """Compare two loaded artifacts; returns the JSON-ready report."""
    base_flat = flatten(baseline)
    curr_flat = flatten(current)
    regressions: List[str] = []
    notes: List[str] = []
    compared = 0

    for path in sorted(base_flat):
        if _matches(path, ignore_patterns):
            continue
        if path not in curr_flat:
            regressions.append(f"{path}: present in baseline, missing now")
            continue
        expected = base_flat[path]
        actual = curr_flat[path]
        compared += 1
        if _matches(path, wall_patterns):
            if expected is None or actual is None:
                if expected is not actual:
                    notes.append(f"{path}: {expected!r} -> {actual!r} "
                                 "(wall-family null change)")
                continue
            if not (_is_number(expected) and _is_number(actual)):
                if expected != actual:
                    regressions.append(
                        f"{path}: {expected!r} != {actual!r}")
                continue
            if expected <= 0:
                # a multiplicative band around a non-positive value has no
                # width (or points the wrong way): nothing to gate against
                if actual != expected:
                    notes.append(f"{path}: {expected!r} -> {actual!r} "
                                 "(non-positive wall-family baseline: "
                                 "no band to apply)")
                continue
            if _matches(path, _HIGHER_IS_BETTER):
                limit = expected / wall_band
                beyond = actual < limit
                how = (f"below {limit!r} "
                       f"(baseline {expected!r} / band {wall_band})")
            else:
                limit = expected * wall_band
                beyond = actual > limit and actual - expected > 1e-9
                how = (f"above {limit!r} "
                       f"(baseline {expected!r} x band {wall_band})")
            if beyond:
                timing = _timing_behind(path, base_flat)
                if timing is not None and timing < MIN_GATED_WALL_S:
                    notes.append(f"{path}: {actual!r} {how}; not gated: the "
                                 f"baseline timing behind it is {timing!r} s "
                                 f"(< {MIN_GATED_WALL_S} s)")
                else:
                    regressions.append(f"{path}: {actual!r} {how}")
            continue
        # exact family: simulation-derived values must match bit for bit
        if expected != actual or type(expected) is not type(actual):
            regressions.append(f"{path}: expected {expected!r}, "
                               f"got {actual!r}")

    for path in sorted(curr_flat):
        if path not in base_flat and not _matches(path, ignore_patterns):
            notes.append(f"{path}: new (absent from baseline)")

    return {
        "status": "regression" if regressions else "ok",
        "compared": compared,
        "wall_band": wall_band,
        "regressions": regressions,
        "notes": notes,
    }


def compare_files(baseline_path: str, current_path: str,
                  **kwargs) -> Dict[str, object]:
    """Load and compare two artifact files."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(current_path) as handle:
        current = json.load(handle)
    report = compare(baseline, current, **kwargs)
    report["baseline"] = baseline_path
    report["current"] = current_path
    return report


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
