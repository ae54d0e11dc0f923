"""List the ``src/`` functions that no runner of the repository calls.

Runs every runner — perfbench's six workloads at full size and its
``trace all --smoke``, ``repro.bench run all`` and ``repro.bench trace``,
the 200-seed fuzz sweep and the seven examples — each in a child
interpreter under ``sys.setprofile``, which records the code object of
every function frame that starts.  The union of what the runners started
is compared with every ``def`` under ``src/`` (found with ``ast``, keyed
like a code object: file, first line, qualified name), and the functions
no runner started are printed, grouped by file, with their line counts and
a total.  A nested function whose enclosing function is also unreached is
counted inside it.

A deletion that cites the census runs it on the parent commit and on the
change: the change must list the parent's functions minus the deleted
ones, so no code a runner executed became unreached.  ``--against FILE``
(the parent's output) makes that one command: after the report it prints
every function unreached here that FILE does not list, compared by file
and qualified name (line numbers move with any edit), and exits 1 if
there is one::

    python benchmarks/runner_census.py > parent.txt      # on the parent
    python benchmarks/runner_census.py --against parent.txt
    # about 30 s each on 2 cores

Outputs of the runners go to a temporary directory that is removed at the
end; the script writes nothing else.  perfbench's host pass runs under
``cProfile``, which replaces the profile hook, so the census collects that
pass's code objects from the profiler's own statistics and re-installs
its hook afterwards.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: ``(label, python arguments)``; ``{tmp}`` is the census's temp directory
RUNNERS: List[Tuple[str, List[str]]] = [
    ("perfbench workloads, full size",
     ["benchmarks/perfbench_sim.py", "--seed", "0",
      "--out", "{tmp}/perfbench_sim.json"]),
    ("perfbench trace all --smoke",
     ["-m", "perfbench", "trace", "all", "--smoke", "--out", "{tmp}/perfbench"]),
    ("repro.bench run all",
     ["-m", "repro.bench", "run", "all", "--out", "{tmp}/bench"]),
    ("repro.bench trace",
     ["-m", "repro.bench", "trace", "--ranks", "8", "--network", "queued",
      "--out", "{tmp}/trace.json", "--validate"]),
    ("fuzz sweep, seeds 0-199",
     ["-m", "repro.fuzz", "--max-runs", "200", "--seed-base", "0",
      "--out", "{tmp}/fuzz"]),
] + [(f"examples/{path.name}", [f"examples/{path.name}"])
     for path in sorted((REPO / "examples").glob("*.py"))]

#: runners at a time
JOBS = 2

#: ``(file relative to the repo, first line, qualified name)``
Key = Tuple[str, int, str]


# ----------------------------------------------------------------------
# child: run one runner under the profile hook
# ----------------------------------------------------------------------
def _child(out: str, argv: List[str]) -> int:
    import runpy

    started: Dict[int, object] = {}

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            started[id(code)] = code

    import cProfile

    class Harvesting(cProfile.Profile):
        """A profiler whose code objects count as started, and which hands
        the profile hook back when it stops."""

        def disable(self):
            super().disable()
            for entry in self.getstats():
                code = entry.code
                if not isinstance(code, str):
                    started[id(code)] = code
            sys.setprofile(hook)

    cProfile.Profile = Harvesting
    sys.path[:0] = [str(SRC), str(REPO)]
    status = 0
    sys.setprofile(hook)
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1]] + argv[2:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        status = stop.code if isinstance(stop.code, int) else int(stop.code is not None)
    finally:
        sys.setprofile(None)
    src = str(SRC) + os.sep
    keys = sorted({(os.path.relpath(code.co_filename, REPO), code.co_firstlineno,
                    code.co_qualname)
                   for code in started.values()
                   if code.co_filename.startswith(src)})
    Path(out).write_text(json.dumps(keys))
    return status


# ----------------------------------------------------------------------
# parent: every function under src/, and who started which
# ----------------------------------------------------------------------
class Function:
    __slots__ = ("key", "last", "parent")

    def __init__(self, key: Key, last: int, parent: Optional["Function"]):
        self.key = key
        self.last = last
        self.parent = parent

    @property
    def lines(self) -> int:
        return self.last - self.key[1] + 1


def functions() -> List[Function]:
    """Every ``def`` under ``src/``, keyed as its code object would be."""
    found: List[Function] = []

    def visit(node, relpath: str, prefix: str, parent: Optional[Function]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = (child.decorator_list[0].lineno if child.decorator_list
                         else child.lineno)
                function = Function((relpath, first, prefix + child.name),
                                    child.end_lineno, parent)
                found.append(function)
                visit(child, relpath, f"{prefix}{child.name}.<locals>.", function)
            elif isinstance(child, ast.ClassDef):
                visit(child, relpath, f"{prefix}{child.name}.", parent)
            else:
                visit(child, relpath, prefix, parent)

    for path in sorted(SRC.rglob("*.py")):
        relpath = str(path.relative_to(REPO))
        visit(ast.parse(path.read_text(), str(path)), relpath, "", None)
    return found


def run_census(defs: Set[Key]) -> Set[Key]:
    """The union of the functions of ``defs`` every runner started."""
    started: Set[Key] = set()
    with tempfile.TemporaryDirectory(prefix="runner_census_") as tmp:
        env = {**os.environ, "TMPDIR": tmp,
               "PYTHONPATH": os.pathsep.join(
                   [str(SRC), str(REPO), os.environ.get("PYTHONPATH", "")])}

        def run(index: int) -> Tuple[str, Set[Key]]:
            label, argv = RUNNERS[index]
            out = os.path.join(tmp, f"census-{index}.json")
            command = [sys.executable, __file__, "--child", out, "--",
                       *(arg.format(tmp=tmp) for arg in argv)]
            done = subprocess.run(command, cwd=REPO, env=env, text=True,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE)
            if done.returncode != 0:
                raise RuntimeError(f"runner {label!r} failed "
                                   f"(exit {done.returncode}):\n{done.stderr[-2000:]}")
            keys = {tuple(key) for key in json.loads(Path(out).read_text())}
            return label, keys & defs

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            for label, keys in pool.map(run, range(len(RUNNERS))):
                print(f"  {label}: {len(keys)} src/ functions", file=sys.stderr)
                started |= keys
    return started


def unreached(every: List[Function], started: Set[Key]) -> List[Function]:
    """The unreached functions the report lists: a nested function counts
    inside its unreached enclosing function."""
    return [function for function in every
            if function.key not in started
            and (function.parent is None or function.parent.key in started)]


def report(every: List[Function], started: Set[Key]) -> None:
    outermost = unreached(every, started)
    by_file: Dict[str, List[Function]] = {}
    for function in outermost:
        by_file.setdefault(function.key[0], []).append(function)
    total = 0
    for relpath, listed in sorted(by_file.items()):
        lines = sum(function.lines for function in listed)
        total += lines
        print(f"{relpath}  ({len(listed)} functions, {lines} lines)")
        for function in listed:
            _, first, qualname = function.key
            print(f"  {first:>5}  {function.lines:>4}  {qualname}")
    print(f"total: {len(outermost)} functions, {total} lines of src/ "
          f"no runner reaches ({len(every)} functions under src/)")


def listed_in(text: str) -> Set[Tuple[str, str]]:
    """``(file, qualified name)`` of every function a report lists."""
    listed: Set[Tuple[str, str]] = set()
    relpath = None
    for line in text.splitlines():
        if line.startswith("src/"):
            relpath = line.split()[0]
        elif line.startswith(" ") and relpath is not None:
            listed.add((relpath, line.split()[2]))
    return listed


def newly_unreached(every: List[Function], started: Set[Key],
                    baseline: str) -> List[Key]:
    """The functions unreached here that the ``baseline`` report does not
    list."""
    known = listed_in(baseline)
    return [function.key for function in unreached(every, started)
            if (function.key[0], function.key[2]) not in known]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return _child(argv[1], argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="FILE",
                        help="a census report (of the parent commit): exit 1 "
                             "if a function unreached here is not listed in it")
    args = parser.parse_args(argv)
    baseline = Path(args.against).read_text() if args.against else None
    every = functions()
    started = run_census({function.key for function in every})
    report(every, started)
    if baseline is None:
        return 0
    new = newly_unreached(every, started, baseline)
    print(f"unreached here, not listed in {args.against}: {len(new)}")
    for relpath, first, qualname in new:
        print(f"  {relpath}:{first}  {qualname}")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
