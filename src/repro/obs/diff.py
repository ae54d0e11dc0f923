"""Cross-run artifact comparison: which keys moved.

Compares two registry snapshots or ``BENCH_*.json`` artifacts leaf by
leaf under one rule: both hold the same key set, and every value is equal
and of the same type.  The committed artifacts carry the simulated clock
only, so two runs of the same code write them byte for byte; any
difference — a changed value, a missing key or a new one — is a
regression.  CI gates the files themselves with ``git diff``; this tool
names the keys that moved.

``BENCH_*`` artifacts key their ``rows`` list by each row's ``label``
before flattening, so a reordered artifact still compares row-to-row
and a message names the row it fired in.  :func:`compare_files` returns
a JSON-ready report; the CLI (``python -m repro.obs diff``) exits
non-zero when any regression is found.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

__all__ = ["flatten", "compare", "compare_files"]


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


def compare(baseline: Dict, current: Dict) -> Dict[str, object]:
    """Compare two loaded artifacts; returns the JSON-ready report."""
    base_flat = flatten(baseline)
    curr_flat = flatten(current)
    regressions: List[str] = []
    for path in sorted(base_flat.keys() | curr_flat.keys()):
        if path not in curr_flat:
            regressions.append(f"{path}: present in baseline, missing now")
        elif path not in base_flat:
            regressions.append(f"{path}: new (absent from baseline)")
        else:
            expected, actual = base_flat[path], curr_flat[path]
            if expected != actual or type(expected) is not type(actual):
                regressions.append(f"{path}: expected {expected!r}, "
                                   f"got {actual!r}")
    return {
        "status": "regression" if regressions else "ok",
        "compared": len(base_flat.keys() & curr_flat.keys()),
        "regressions": regressions,
    }


def compare_files(baseline_path: str, current_path: str) -> Dict[str, object]:
    """Load and compare two artifact files."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(current_path) as handle:
        current = json.load(handle)
    report = compare(baseline, current)
    report["baseline"] = baseline_path
    report["current"] = current_path
    return report
