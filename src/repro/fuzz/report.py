"""Run reporting: ``runs.ndjson`` lines and flagged-run artifact dumps.

One line per run, appended to ``<out>/runs.ndjson``: compact, key-sorted
JSON with **no wall-clock content** — every field derives from the seed
and the simulation, so replaying a seed reproduces its line byte-for-byte
(the replay contract ``--replay`` enforces).  Wall-clock progress goes to
stderr only.

A flagged run additionally gets ``<out>/flagged/seed_<seed>/`` holding the
full scenario blueprint, the resolved cluster config, the anomaly list, a
Chrome trace from a traced re-execution of the seed (tracing is
behaviour-neutral, so the trace shows exactly the flagged timeline) and
that re-execution's critical-path layer breakdown (``critpath.json``) —
everything triage needs to replay and inspect the failure.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from repro.cluster.config import ClusterConfig
from repro.fuzz.runner import QUICK_BASE, RunResult, execute_scenario

#: ndjson lines are capped to keep sweeps greppable; anomalies beyond this
#: stay in the flagged dump
MAX_LINE_ANOMALIES = 6


def run_line(result: RunResult) -> str:
    """The deterministic one-line JSON record of a run."""
    scenario = result.scenario
    anomalies = result.all_anomalies()
    record = {
        "seed": scenario.seed,
        "status": "flagged" if result.flagged else "ok",
        "num_ranks": scenario.num_ranks,
        "num_aggregators": scenario.num_aggregators,
        "phases": [phase.kind for phase in scenario.phases],
        "injectors": [injector.kind for injector in scenario.injectors],
        "fired": result.fired,
        "dormant": result.dormant,
        "anomalies": anomalies[:MAX_LINE_ANOMALIES],
        "anomaly_count": len(anomalies),
        "read_digest": result.read_digest,
        "latest_version": result.latest_version,
        "processed_events": result.processed_events,
        "sim_elapsed": result.sim_elapsed,
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def resolved_config(result: RunResult) -> Dict:
    """The full ClusterConfig the run executed under, as one flat dict."""
    overrides = dict(QUICK_BASE)
    overrides.update(result.scenario.cluster)
    return ClusterConfig(**overrides).as_dict()


def dump_flagged(result: RunResult, out_dir: str) -> str:
    """Write the triage bundle of a flagged run; returns its directory."""
    run_dir = os.path.join(out_dir, "flagged",
                           f"seed_{result.scenario.seed}")
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "scenario.json"), "w") as handle:
        handle.write(result.scenario.canonical_json())
    with open(os.path.join(run_dir, "config.json"), "w") as handle:
        json.dump(resolved_config(result), handle, indent=2, sort_keys=True)
    with open(os.path.join(run_dir, "anomalies.json"), "w") as handle:
        json.dump({"anomalies": result.anomalies,
                   "fired": result.fired,
                   "dormant": result.dormant},
                  handle, indent=2, sort_keys=True)
    # traced re-execution: tracing never changes simulated behaviour, so
    # the trace and critical-path breakdown show the flagged run's exact
    # timeline
    try:
        execute_scenario(result.scenario, tracing=True,
                         trace_path=os.path.join(run_dir, "trace.json"),
                         critpath_path=os.path.join(run_dir,
                                                    "critpath.json"))
    except Exception as exc:
        # a pathological flagged run (deadlock, partial spans) must not
        # lose its bundle over a failed analysis pass
        with open(os.path.join(run_dir, "analysis_error.txt"),
                  "w") as handle:
            handle.write(f"{type(exc).__name__}: {exc}\n")
    return run_dir


def append_line(out_dir: str, line: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "runs.ndjson"), "a") as handle:
        handle.write(line + "\n")


def recorded_line(out_dir: str, seed: int) -> str:
    """The last runs.ndjson line recorded for ``seed`` (or ``""``)."""
    path = os.path.join(out_dir, "runs.ndjson")
    if not os.path.exists(path):
        return ""
    found = ""
    with open(path) as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            try:
                if json.loads(raw).get("seed") == seed:
                    found = raw
            except json.JSONDecodeError:
                continue
    return found
