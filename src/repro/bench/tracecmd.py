"""``python -m repro.bench trace`` — export a Chrome trace of one run.

Runs the simulator-core collective I/O workload (every rank writes its
interleaved blocks with one ``write_at_all``, syncs, reads them back
collectively) with tracing enabled and dumps the resulting span/counter
timeline as Chrome trace-event JSON — loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``, one lane per rank,
node, shard and link.

Beside the trace it writes the run's per-operation critical-path layer
breakdown (:func:`repro.obs.critpath.operation_report`) as
``<out stem>.critpath.json``: for every operation, where its end-to-end
simulated time went, split over the six layers of
:data:`repro.obs.critpath.LAYERS`.

Both files are driven purely by the simulation clock, so they are
byte-stable across hosts and repeat runs: diffing two exports answers
"did this change move the timeline" exactly.
"""

from __future__ import annotations

import argparse
import os
from typing import Dict

from repro.cluster.config import ClusterConfig
from repro.obs.export import validate_chrome_trace


def run_trace(args: argparse.Namespace) -> Dict[str, object]:
    """Run one traced collective I/O point; dump its Chrome trace and its
    critical-path report.

    Returns a small summary dict (also printed): the two output paths,
    the run's simulated time, event count and read digest and — with
    ``--validate`` — the trace schema check's verdict.  Raises on
    validation problems so CI smoke runs fail loudly.
    """
    from repro.bench.simcore import run_collective_io_point

    out = args.out or "trace_collective.json"
    critpath = os.path.splitext(out)[0] + ".critpath.json"
    config = ClusterConfig(network_model=args.network, tracing=True)
    row = run_collective_io_point(
        args.ranks, args.blocks, args.block_size, args.read_rounds,
        num_aggregators=args.aggregators or max(1, args.ranks // 4),
        config=config, seed=args.seed, trace_path=out,
        critpath_path=critpath)

    summary = {
        "out": out,
        "critpath": critpath,
        "num_ranks": args.ranks,
        "network_model": args.network,
        "sim_elapsed_s": row["sim_elapsed_s"],
        "processed_events": row["processed_events"],
        "read_digest": row["read_digest"],
    }
    if args.validate:
        with open(out) as handle:
            problems = validate_chrome_trace(handle.read())
        summary["validation_problems"] = problems
        if problems:
            raise SystemExit(
                "trace schema validation failed:\n  " + "\n  ".join(problems))
    for key, value in summary.items():
        print(f"{key}: {value}")
    return summary


def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the trace subcommand's flags on the bench parser."""
    group = parser.add_argument_group("trace options")
    group.add_argument("--ranks", type=int, default=8,
                       help="MPI ranks of the traced job (default: 8)")
    group.add_argument("--blocks", type=int, default=8,
                       help="blocks per rank (default: 8)")
    group.add_argument("--block-size", type=int, default=1024,
                       help="bytes per block (default: 1024)")
    group.add_argument("--read-rounds", type=int, default=1,
                       help="collective read-back rounds (default: 1)")
    group.add_argument("--aggregators", type=int, default=None,
                       help="aggregator/resolver ranks (default: ranks/4)")
    group.add_argument("--seed", type=int, default=0,
                       help="simulation seed (default: 0)")
    group.add_argument("--network", choices=["bottleneck", "queued"],
                       default="queued",
                       help="network model; 'queued' adds per-link lanes "
                            "(default: queued)")
    group.add_argument("--out", default=None,
                       help="trace: output path (default: "
                            "trace_collective.json); run: directory the "
                            "artifacts go to (default: .)")
    group.add_argument("--validate", action="store_true",
                       help="check the dumped trace against the "
                            "trace-event schema and fail on problems")
