"""``python -m perfbench``: run, trace, agree, record, contract.

``bench`` is the form the benchmark driver calls
(``--workload W --seed N --seconds S --trace 0|1``); its last line of
output is one JSON object.  ``run`` and ``trace`` are the same two runs
for people: they print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from perfbench import REPO_ROOT, SRC_DIR

DEFAULT_OUT = os.path.join(REPO_ROOT, ".perfbench_out")


def _parser() -> argparse.ArgumentParser:
    from perfbench.metrics import RUN_SECONDS
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    def measuring(name: str, help_text: str, positional: bool):
        command = commands.add_parser(name, help=help_text)
        if positional:
            command.add_argument("workload", choices=sorted(WORKLOADS) + ["all"])
        else:
            command.add_argument("--workload", required=True,
                                 choices=sorted(WORKLOADS))
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--seconds", type=float,
                             help="wall-clock budget of the repetitions "
                                  f"(default {RUN_SECONDS}, smoke 0.3)")
        command.add_argument("--smoke", action="store_true",
                             help="shrunk shapes, for testing the harness; "
                                  "never recorded as a baseline")
        command.add_argument("--out", default=DEFAULT_OUT,
                             help="directory for the run's JSON record")
        return command

    measuring("run", "end-to-end metrics, tracing off", positional=True)
    measuring("trace", "per-layer metrics: host pass + sim pass",
              positional=True)
    bench = measuring("bench", "the benchmark driver's entry point",
                      positional=False)
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)

    setup = commands.add_parser(
        "setup", help="do what a run does before its first repetition "
                      "(timed from outside for setup_s)")
    setup.add_argument("workload", choices=sorted(WORKLOADS))
    setup.add_argument("--seed", type=int, default=0)
    setup.add_argument("--smoke", action="store_true")

    agree = commands.add_parser(
        "agree", help="compare two sets of run records, row by row")
    agree.add_argument("runs_a", help="directory (or file) of run records")
    agree.add_argument("runs_b")

    record = commands.add_parser(
        "record", help="fold a set of full-size run records into "
                       "perfbench/baseline.json")
    record.add_argument("runs", help="directory of run records")

    commands.add_parser("contract", help="write BENCHMARK.json from "
                                         "perfbench/metrics.py")
    return parser


def _print_table(record: dict) -> None:
    print(f"{record['workload']}  seed {record['seed']}  "
          f"{'SMOKE  ' if record['smoke'] else ''}"
          f"k={record['detail']['k']}  commit {record['commit'][:12]}  "
          f"python {record['python']}  nproc {record['nproc']}")
    for name, entry in record["metrics"].items():
        print(f"  {name:<44} {entry['value']:>16.6f} {entry['unit']}")
    print(f"  {'failed_ops_share':<44} {record['failed_ops_share']:>16.6f} "
          f"ratio  ({record['failed']} of {record['attempted']})")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    if not os.path.isdir(SRC_DIR):
        print(f"perfbench: {SRC_DIR} is missing: there is no program to "
              "measure", file=sys.stderr)
        return 2
    args = _parser().parse_args(argv)

    if args.command == "setup":
        from perfbench.workloads import WORKLOADS
        WORKLOADS[args.workload].inputs(args.seed, args.smoke)
        return 0
    if args.command == "agree":
        from perfbench.agree import agree
        return agree(args.runs_a, args.runs_b)
    if args.command == "record":
        from perfbench.agree import record_baseline
        return record_baseline(args.runs)
    if args.command == "contract":
        from perfbench.metrics import contract
        from perfbench.workloads import WORKLOADS
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "w") as handle:
            json.dump(contract(WORKLOADS.values()), handle, indent=1)
            handle.write("\n")
        return 0

    from perfbench import measure
    from perfbench.metrics import RUN_SECONDS
    from perfbench.workloads import WORKLOADS
    seconds = args.seconds if args.seconds is not None \
        else (0.3 if args.smoke else RUN_SECONDS)
    traced = args.command == "trace" or getattr(args, "trace", 0) == 1
    status = 0
    for name in (WORKLOADS if args.workload == "all" else [args.workload]):
        if traced:
            spans = measure.record_path(args.out, args.smoke,
                                        f"spans-{name}-seed{args.seed}.json")
            record = measure.per_layer(name, args.seed, seconds, args.smoke,
                                       spans_path=spans)
        else:
            record = measure.end_to_end(name, args.seed, seconds, args.smoke)
        measure.write_record(record, args.out)
        if args.command == "bench":
            print(json.dumps({key: record[key] for key in
                              ("correct", "attempted", "failed", "metrics")}))
        else:
            _print_table(record)
        status = max(status, 0 if record["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
