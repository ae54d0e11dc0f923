"""Command-line entry point of the one bench runner.

``run`` regenerates perf-suite artifacts — every entry of
:data:`repro.bench.suites.SUITES`, the paper's experiments (``paper``:
EXP1-EXP3) and ablations (``ablations``: EXP1b, ABL1-3, FUT1) included — and
prints their tables.  What a suite runs is its table entry; there are no
per-experiment flags::

    python -m repro.bench run all              # full size: BENCH_<suite>.json
    python -m repro.bench run paper ablations  # the paper's tables
    python -m repro.bench run simcore --smoke  # BENCH_simcore.smoke.json

``trace`` is the observability entry point — it runs one traced
collective I/O job and dumps a Perfetto-loadable Chrome trace, with the
job's critical-path report beside it (``<out stem>.critpath.json``)::

    python -m repro.bench trace --ranks 8 --out trace_collective.json --validate
"""

from __future__ import annotations

import argparse
import json
from itertools import groupby
from typing import Sequence

from repro.bench.reporting import format_table
from repro.bench.suites import SUITES, run_suite
from repro.bench.tracecmd import add_trace_arguments, run_trace


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the benchmark artifacts on the simulated "
                    "cluster, or trace one job.")
    parser.add_argument("command", choices=["run", "trace"],
                        help="'run' writes perf-suite artifacts, 'trace' "
                             "exports a Chrome trace of one collective I/O "
                             "job")
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help="with 'run': perf suites to regenerate, or "
                             f"'all' (choose from {', '.join(SUITES)})")
    parser.add_argument("--smoke", action="store_true",
                        help="with 'run': the scaled-down suites, written "
                             "to BENCH_<suite>.smoke.json")
    add_trace_arguments(parser)
    return parser


def _scalar_columns(row) -> list:
    return [column for column, value in row.items()
            if not isinstance(value, (dict, list))]


def run_suites(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """``run``: regenerate the named suites' artifacts under ``--out``."""
    names = list(SUITES) if args.suites in ([], ["all"]) else args.suites
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        parser.error(f"unknown suite(s) {unknown}; choose from {list(SUITES)}")
    for name in names:
        run = run_suite(name, smoke=args.smoke, out_dir=args.out or ".")
        print(f"{run.path} — {SUITES[name].title}")
        # one table per run of rows that share their scalar columns
        for columns, rows in groupby(run.artifact["rows"],
                                     key=_scalar_columns):
            print(format_table(list(rows), columns=columns))
        for key, value in run.artifact.items():
            if key not in ("suite", "smoke", "settings", "rows"):
                print(f"{key}: {json.dumps(value)}")
        print()


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "trace":
        run_trace(args)
    else:
        run_suites(args, parser)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
