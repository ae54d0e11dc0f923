"""Command-line front end for the observability analysis tier.

``python -m repro.obs diff A B``
    Compare two registry snapshots / ``BENCH_*.json`` artifacts with
    per-metric tolerance bands (see :mod:`repro.obs.diff`); exits 1 on
    regression — the CI perf-regression gate.

``python -m repro.obs flight --ranks 8 --out flight.json``
    Run a small queued collective job with the always-on flight recorder
    and dump the ring — the CI flight-dump artifact.

``python -m repro.obs critpath --ranks 8 --out critpath.json``
    Trace the same job and write the per-operation critical-path layer
    breakdown (:func:`repro.obs.critpath.operation_report`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .diff import (DEFAULT_IGNORE_PATTERNS, DEFAULT_WALL_BAND,
                   DEFAULT_WALL_PATTERNS, compare_files, write_report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability analysis: artifact diffs, flight dumps, "
                    "critical-path reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    diff = sub.add_parser(
        "diff", help="compare two snapshot/BENCH artifacts; exit 1 on "
                     "regression")
    diff.add_argument("baseline", help="baseline artifact (JSON)")
    diff.add_argument("current", help="current artifact (JSON)")
    diff.add_argument("--wall-band", type=float, default=DEFAULT_WALL_BAND,
                      help="multiplicative tolerance for wall-clock-family "
                           "values (default %(default)s)")
    diff.add_argument("--ignore", action="append", default=[],
                      metavar="PATTERN",
                      help="extra dotted-path glob to skip (repeatable)")
    diff.add_argument("--band", action="append", default=[],
                      metavar="PATTERN",
                      help="extra dotted-path glob to treat as wall-family "
                           "(repeatable)")
    diff.add_argument("--report", metavar="PATH",
                      help="write the JSON diff report here")

    flight = sub.add_parser(
        "flight", help="run a small collective job and dump the flight "
                       "recorder ring")
    _add_job_arguments(flight)
    flight.add_argument("--out", required=True, metavar="PATH",
                        help="flight-dump JSON path")

    crit = sub.add_parser(
        "critpath", help="trace a small collective job and write its "
                         "critical-path layer breakdown")
    _add_job_arguments(crit)
    crit.add_argument("--out", required=True, metavar="PATH",
                      help="critical-path report JSON path")
    return parser


def _add_job_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ranks", type=int, default=8,
                        help="MPI ranks (default %(default)s)")
    parser.add_argument("--network", default="queued",
                        choices=("bottleneck", "queued"),
                        help="network model (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="cluster seed (default %(default)s)")


def _run_diff(args: argparse.Namespace) -> int:
    report = compare_files(
        args.baseline, args.current,
        wall_band=args.wall_band,
        wall_patterns=tuple(DEFAULT_WALL_PATTERNS) + tuple(args.band),
        ignore_patterns=tuple(DEFAULT_IGNORE_PATTERNS) + tuple(args.ignore))
    if args.report:
        write_report(report, args.report)
    print(f"compared {report['compared']} metrics "
          f"(wall band {report['wall_band']}x): {report['status']}")
    for note in report["notes"]:
        print(f"  note: {note}")
    for regression in report["regressions"]:
        print(f"  REGRESSION: {regression}")
    return 1 if report["regressions"] else 0


def _run_job(args: argparse.Namespace, *, tracing: bool,
             flight_path: Optional[str], critpath_path: Optional[str],
             ) -> int:
    # imported lazily: the diff subcommand must not pull the simulator in
    from repro.bench.simcore import run_collective_io_point
    from repro.cluster import ClusterConfig

    config = ClusterConfig(network_model=args.network, tracing=tracing)
    row = run_collective_io_point(
        num_ranks=args.ranks, blocks_per_rank=4, block_size=4096,
        read_rounds=1, num_aggregators=max(1, args.ranks // 4),
        config=config, seed=args.seed,
        flight_path=flight_path, critpath_path=critpath_path)
    summary = {"ranks": args.ranks, "network": args.network,
               "sim_elapsed_s": row["sim_elapsed_s"],
               "processed_events": row["processed_events"]}
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "diff":
        return _run_diff(args)
    if args.command == "flight":
        return _run_job(args, tracing=False, flight_path=args.out,
                        critpath_path=None)
    if args.command == "critpath":
        return _run_job(args, tracing=True, flight_path=None,
                        critpath_path=args.out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
