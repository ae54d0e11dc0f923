"""Compare sets of run records, and fold one set into the recorded baseline.

Host figures are compared as *sets of runs* (median and quartiles per set),
never run against run: on this sandbox identical repetitions differ by tens
of percent.  A row whose own spread exceeds the metric's bound is
``unresolved``, not ``same``.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List, Tuple

from perfbench import REPO_ROOT
from perfbench.measure import environment, quartiles
from perfbench.metrics import BY_NAME, END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

BASELINE_PATH = os.path.join(REPO_ROOT, "perfbench", "baseline.json")

#: (workload, metric) -> values, one per run record
Table = Dict[Tuple[str, str], List[float]]


def load_runs(path: str) -> Tuple[Table, List[dict]]:
    """Every run record under ``path`` (a file or a directory, one level)."""
    files = [path] if os.path.isfile(path) \
        else sorted(glob.glob(os.path.join(path, "*.json")))
    table: Table = {}
    records = []
    for name in files:
        with open(name) as handle:
            record = json.load(handle)
        if not isinstance(record, dict) or record.get("perfbench") != 1:
            continue  # span dumps share the directory
        records.append(record)
        for metric, entry in record["metrics"].items():
            table.setdefault((record["workload"], metric), []) \
                .append(entry["value"])
    if not records:
        raise SystemExit(f"perfbench: no run records under {path}")
    return table, records


def verdict(metric: str, a: List[float], b: List[float]) -> Tuple[str, float]:
    """``same`` / ``worse`` / ``unresolved`` (or ``differs`` / ``info`` for
    per-layer metrics, which have no bound), and B's median over A's."""
    declared = BY_NAME[metric]
    q1_a, median_a, q3_a = quartiles(a)
    q1_b, median_b, q3_b = quartiles(b)
    ratio = median_b / median_a if median_a else float("nan")
    if declared.bound is None:
        if not declared.exact:
            return "info", ratio
        return ("same" if median_a == median_b else "differs"), ratio
    spread = max((q3_a - q1_a) / median_a, (q3_b - q1_b) / median_b)
    if spread > declared.bound:
        return "unresolved", ratio
    worse_by = (median_b - median_a) / median_a
    if declared.better == "higher":
        worse_by = -worse_by
    return ("worse" if worse_by > declared.bound else "same"), ratio


def agree(path_a: str, path_b: str) -> int:
    """Print one row per (metric, workload) present in both sets; non-zero
    when any row is ``worse`` or ``differs``."""
    table_a, _ = load_runs(path_a)
    table_b, _ = load_runs(path_b)
    print(f"A = {path_a}\nB = {path_b}   (ratio = B median / A median)")
    print(f"{'workload':<22} {'metric':<40} {'A median [q1, q3] n':<42} "
          f"{'B median [q1, q3] n':<42} {'B/A':>8} {'bound':>6}  verdict")
    bad = 0
    for workload in WORKLOADS:
        for declared in END_TO_END + PER_LAYER:
            key = (workload, declared.name)
            if key not in table_a or key not in table_b:
                continue
            a, b = table_a[key], table_b[key]
            word, ratio = verdict(declared.name, a, b)
            bad += word in ("worse", "differs")
            bound = "" if declared.bound is None else f"{declared.bound:.3f}"
            print(f"{workload:<22} {declared.name:<40} {_cell(a):<42} "
                  f"{_cell(b):<42} {ratio:>8.4f} {bound:>6}  {word}")
    return 1 if bad else 0


def _cell(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] {len(values)}"


def record_baseline(path: str) -> int:
    """Write ``perfbench/baseline.json``: median and quartiles of every
    (metric, workload) pairing over a full-size set of runs."""
    table, records = load_runs(path)
    if any(record["smoke"] for record in records):
        print("perfbench: refusing to record a baseline from smoke runs")
        return 2
    missing = [(workload, metric.name) for workload in WORKLOADS
               for metric in END_TO_END + PER_LAYER
               if (workload, metric.name) not in table]
    if missing:
        print(f"perfbench: {len(missing)} pairings have no run, e.g. "
              f"{missing[:3]}; run every workload with --trace 0 and 1")
        return 2
    baseline = {
        "smoke": False, **environment(),
        "seeds": sorted({record["seed"] for record in records}),
        "seconds": sorted({record["seconds"] for record in records}),
        "workloads": {},
    }
    for (workload, metric), values in sorted(table.items()):
        q1, median, q3 = quartiles(values)
        baseline["workloads"].setdefault(workload, {})[metric] = {
            "median": median, "q1": q1, "q3": q3, "n": len(values),
            "unit": BY_NAME[metric].unit}
    with open(BASELINE_PATH, "w") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(table)} pairings from {len(records)} runs")
    return 0
