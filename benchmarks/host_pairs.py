"""Alternating host-time pairs of a parent commit and the working tree.

Usage::

    python benchmarks/host_pairs.py PARENT_REV --workload collective_ckpt \\
        --seed 0 --pairs 10

A host-time figure moves by several per cent between identical runs on a
small machine, so one run of each side shows nothing.  This script checks
``PARENT_REV`` out in a temporary ``git worktree`` and runs ``python -m
perfbench bench --workload W --seed N --trace 0`` alternately in that tree
and in this one, ``--pairs`` times, swapping which side goes first every
pair.  It prints every pair, each side's median and quartiles of
``host_s``, the change's wins, and the verdict of :func:`verdict`: a gain
is claimed only over at least ten pairs, when the change wins at least
nine tenths of them (ties count for neither side) and the medians lie
further apart than the parent's interquartile range.  Exit status 0 means
the gain holds.

The worktree (and every record ``perfbench`` writes) lives in a temporary
directory that is removed at the end.  Both trees run the same interpreter,
``sys.executable``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, NamedTuple, Sequence

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Verdict(NamedTuple):
    """How ``change`` compares with ``parent``, pair by pair (lower wins)."""

    pairs: int
    #: pairs the change won outright (a tie counts for neither side)
    wins: int
    parent_median: float
    change_median: float
    #: the parent's interquartile range: the spread its own runs show
    parent_iqr: float
    #: at least ten pairs, nine tenths of them won, and medians apart by
    #: more than ``parent_iqr``
    holds: bool


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` of ``values`` (``statistics.quantiles``' default
    exclusive method; a single value is its own quartiles)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(parent: Sequence[float], change: Sequence[float]) -> Verdict:
    """Judge ``change`` against ``parent``: the same number of runs, pair
    ``i`` being ``parent[i]`` and ``change[i]``, lower being better."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    pairs = len(parent)
    wins = sum(1 for old, new in zip(parent, change) if new < old)
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    holds = (pairs >= 10 and 10 * wins >= 9 * pairs
             and parent_median - change_median > q3 - q1)
    return Verdict(pairs, wins, parent_median, change_median, q3 - q1, holds)


def _host_s(tree: str, workload: str, seed: int, out: str) -> float:
    """One ``perfbench bench`` run in ``tree``: its ``host_s``."""
    finished = subprocess.run(
        [sys.executable, "-m", "perfbench", "bench", "--workload", workload,
         "--seed", str(seed), "--trace", "0", "--out", out],
        cwd=tree, check=True, capture_output=True, text=True)
    record = json.loads(finished.stdout.strip().splitlines()[-1])
    if not record["correct"]:
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed its checks")
    return record["metrics"]["host_s"]["value"]


def run_pairs(parent_tree: str, workload: str, seed: int, pairs: int,
              out: str) -> Dict[str, List[float]]:
    """``pairs`` alternating runs of each side; the parent goes first in
    even pairs, the change in odd ones."""
    runs: Dict[str, List[float]] = {"parent": [], "change": []}
    trees = {"parent": parent_tree, "change": REPO}
    for index in range(pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_host_s(trees[side], workload, seed, out))
        print(f"pair {index + 1:2d}: parent {runs['parent'][-1]:.4f} s  "
              f"change {runs['change'][-1]:.4f} s", flush=True)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent revision (any git rev)")
    parser.add_argument("--workload", default="collective_ckpt")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="host-pairs-") as scratch:
        parent_tree = os.path.join(scratch, "parent")
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet",
                        parent_tree, args.parent], cwd=REPO, check=True)
        try:
            runs = run_pairs(parent_tree, args.workload, args.seed,
                             args.pairs, os.path.join(scratch, "records"))
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            parent_tree], cwd=REPO, check=False)

    for side in ("parent", "change"):
        q1, median, q3 = quartiles(runs[side])
        print(f"{side:6s} host_s median {median:.4f} s  "
              f"quartiles {q1:.4f} / {q3:.4f} s")
    result = verdict(runs["parent"], runs["change"])
    print(f"change wins {result.wins} of {result.pairs} pairs; medians "
          f"{result.parent_median:.4f} -> {result.change_median:.4f} s, "
          f"parent IQR {result.parent_iqr:.4f} s")
    print("gain holds" if result.holds else "no gain shown")
    return 0 if result.holds else 1


if __name__ == "__main__":
    sys.exit(main())
