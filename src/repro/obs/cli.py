"""Command-line front end for the observability analysis tier.

``python -m repro.obs diff A B``
    Compare two registry snapshots / ``BENCH_*.json`` artifacts with
    per-metric tolerance bands (see :mod:`repro.obs.diff`); exits 1 on
    regression — the CI perf-regression gate.

A traced run and its critical-path report come from
``python -m repro.bench trace``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .diff import (DEFAULT_IGNORE_PATTERNS, DEFAULT_WALL_BAND,
                   DEFAULT_WALL_PATTERNS, compare_files, write_report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability analysis: artifact diffs.")
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
    return parser


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


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _run_diff(args)


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
