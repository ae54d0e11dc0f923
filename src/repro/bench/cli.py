"""Command-line entry point for the experiment harness.

Run any of the paper's experiments (``benchmarks/README.md``) from the
shell::

    python -m repro.bench exp1 --clients 1,2,4,8 --storage-nodes 8
    python -m repro.bench exp2 --clients 4,16
    python -m repro.bench exp3
    python -m repro.bench abl1 --providers 1,2,4,8
    python -m repro.bench abl2
    python -m repro.bench abl3
    python -m repro.bench fut1 --producers 4 --consumers 2
    python -m repro.bench all

``run`` regenerates the perf-suite artifacts — every entry of
:data:`repro.bench.suites.SUITES`, ``BENCH_paper.json`` (the experiments
above at the paper's client counts) included::

    python -m repro.bench run all              # full size: BENCH_<suite>.json
    python -m repro.bench run simcore --smoke  # BENCH_simcore.smoke.json

``trace`` is the observability entry point — it runs one traced
collective I/O job and dumps a Perfetto-loadable Chrome trace::

    python -m repro.bench trace --ranks 8 --out trace_collective.json --validate
"""

from __future__ import annotations

import argparse
import json
from typing import List, Sequence

from repro.bench.experiments import (
    ExperimentSettings,
    run_abl1_striping,
    run_abl2_lock_granularity,
    run_abl3_metadata_overhead,
    run_exp1_overlap_scalability,
    run_exp1b_nonoverlapping,
    run_exp2_tile_io,
    run_exp3_speedup_table,
)
from repro.bench.producer_consumer import run_fut1_producer_consumer
from repro.bench.reporting import format_table
from repro.bench.suites import SUITES, run_suite
from repro.bench.tracecmd import add_trace_arguments, run_trace


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's experiments on the simulated cluster.")
    parser.add_argument("experiment",
                        choices=["exp1", "exp1b", "exp2", "exp3",
                                 "abl1", "abl2", "abl3", "fut1", "all",
                                 "trace", "run"],
                        help="which experiment to run ('trace' exports a "
                             "Chrome trace of one collective I/O job, 'run' "
                             "writes perf-suite artifacts)")
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help="with 'run': perf suites to regenerate, or "
                             f"'all' (choose from {', '.join(SUITES)})")
    parser.add_argument("--smoke", action="store_true",
                        help="with 'run': the scaled-down suites, written "
                             "to BENCH_<suite>.smoke.json (also: "
                             "REPRO_BENCH_SMOKE=1)")
    parser.add_argument("--clients", type=_int_list, default=[1, 2, 4, 8],
                        help="comma-separated client counts (default: 1,2,4,8)")
    parser.add_argument("--storage-nodes", type=int, default=8,
                        help="data providers / OSTs per backend (default: 8)")
    parser.add_argument("--regions-per-client", type=int, default=8,
                        help="non-contiguous regions per client write (default: 8)")
    parser.add_argument("--region-kib", type=int, default=64,
                        help="size of each region in KiB (default: 64)")
    parser.add_argument("--overlap", type=float, default=0.5,
                        help="overlap fraction between neighbouring clients")
    parser.add_argument("--providers", type=_int_list, default=[1, 2, 4, 8],
                        help="provider counts for abl1 (default: 1,2,4,8)")
    parser.add_argument("--producers", type=int, default=4,
                        help="producer ranks for fut1 (default: 4)")
    parser.add_argument("--consumers", type=int, default=2,
                        help="consumer ranks for fut1 (default: 2)")
    parser.add_argument("--iterations", type=int, default=3,
                        help="iterations for fut1 (default: 3)")
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed (default: 0)")
    add_trace_arguments(parser)
    return parser


def settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    """Translate CLI arguments into harness settings."""
    return ExperimentSettings(
        client_counts=tuple(args.clients),
        num_storage_nodes=args.storage_nodes,
        regions_per_client=args.regions_per_client,
        region_size=args.region_kib * 1024,
        overlap_fraction=args.overlap,
        seed=args.seed,
    )


def run_experiment(name: str, args: argparse.Namespace) -> List[str]:
    """Run one experiment and return the rendered tables."""
    settings = settings_from_args(args)
    tables: List[str] = []
    if name in ("exp1", "all"):
        tables.append(format_table(run_exp1_overlap_scalability(settings),
                                   title="EXP1 — overlapped non-contiguous writes"))
    if name in ("exp1b", "all"):
        tables.append(format_table(run_exp1b_nonoverlapping(settings),
                                   title="EXP1b — disjoint accesses"))
    if name in ("exp2", "all"):
        tables.append(format_table(run_exp2_tile_io(settings),
                                   title="EXP2 — MPI-tile-IO"))
    if name in ("exp3", "all"):
        tables.append(format_table(run_exp3_speedup_table(settings),
                                   title="EXP3 — speedup (paper: 3.5x-10x)"))
    if name in ("abl1", "all"):
        tables.append(format_table(
            run_abl1_striping(settings, provider_counts=tuple(args.providers)),
            title="ABL1 — striping"))
    if name in ("abl2", "all"):
        tables.append(format_table(run_abl2_lock_granularity(settings),
                                   title="ABL2 — locking granularity"))
    if name in ("abl3", "all"):
        tables.append(format_table(run_abl3_metadata_overhead(settings),
                                   title="ABL3 — metadata overhead"))
    if name in ("fut1", "all"):
        tables.append(format_table(
            run_fut1_producer_consumer(settings, num_producers=args.producers,
                                       num_consumers=args.consumers,
                                       iterations=args.iterations),
            title="FUT1 — producer/consumer"))
    return tables


def run_suites(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """``run``: regenerate the named suites' artifacts under ``--out``."""
    names = list(SUITES) if args.suites in ([], ["all"]) else args.suites
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        parser.error(f"unknown suite(s) {unknown}; choose from {list(SUITES)}")
    for name in names:
        run = run_suite(name, smoke=args.smoke or None,
                        out_dir=args.out or ".")
        rows = run.artifact["rows"]
        print(format_table(
            rows, title=f"{run.path} — {SUITES[name].title}",
            columns=[column for column, value in rows[0].items()
                     if not isinstance(value, (dict, list))]))
        for key, value in run.artifact.items():
            if key not in ("suite", "smoke", "python", "settings", "rows"):
                print(f"{key}: {json.dumps(value)}")
        print()


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "trace":
        run_trace(args)
        return 0
    if args.experiment == "run":
        run_suites(args, parser)
        return 0
    for table in run_experiment(args.experiment, args):
        print(table)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
