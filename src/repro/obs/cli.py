"""Command-line front end for the observability analysis tier.

``python -m repro.obs diff A B``
    Compare two registry snapshots / ``BENCH_*.json`` artifacts exactly
    (see :mod:`repro.obs.diff`) and name every key that moved; exits 1 on
    any difference.

A traced run and its critical-path report come from
``python -m repro.bench trace``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .diff import compare_files


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
    return parser


def _run_diff(args: argparse.Namespace) -> int:
    report = compare_files(args.baseline, args.current)
    print(f"compared {report['compared']} metrics: {report['status']}")
    for regression in report["regressions"]:
        print(f"  REGRESSION: {regression}")
    return 1 if report["regressions"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _run_diff(args)


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
