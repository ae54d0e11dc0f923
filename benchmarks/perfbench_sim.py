"""Record perfbench's simulated clock: every workload's ``sim_*`` metrics.

Runs each perfbench workload once at full size on one seed and writes its
``sim_*`` metrics (``perfbench.measure.sim_metrics``) as JSON.  The values
are simulated time only — wall-clock free — so two commits that simulate
the same thing write byte-identical files, and a ``cmp`` against the
committed ``benchmarks/baselines/perfbench_sim_seed0.json`` is a
cross-commit gate on "every ``sim_*`` bit-identical"::

    python benchmarks/perfbench_sim.py --out perfbench_sim_seed0.json
    cmp perfbench_sim_seed0.json benchmarks/baselines/perfbench_sim_seed0.json

A change meant to move the simulation re-records the baseline with the same
command and says which numbers moved.  Takes about 15 s.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.measure import sim_metrics
from perfbench.workloads import WORKLOADS


def record(seed: int) -> dict:
    """``{workload: {metric: value}}`` of one full-size run per workload."""
    metrics = {}
    for name, workload in WORKLOADS.items():
        metrics[name] = sim_metrics(workload.run(workload.inputs(seed)))
    return {"seed": seed, "workloads": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    Path(args.out).write_text(
        json.dumps(record(args.seed), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
