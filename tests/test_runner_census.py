"""The runner census keys every ``def`` the way the interpreter does.

``benchmarks/runner_census.py`` finds the functions under ``src/`` with
``ast`` and matches them against the code objects its runners started.  A
``def`` whose key differs from its code object's would be listed as
unreached however often it ran, so the keys are checked against what
``compile`` produces for every file.
"""

import importlib.util
import inspect
import types
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "runner_census", REPO / "benchmarks" / "runner_census.py")
census = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(census)


def code_object_keys():
    """``(file, first line, qualified name)`` of every compiled function."""
    keys = set()

    def walk(code, relpath):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if (const.co_flags & inspect.CO_NEWLOCALS
                        and not const.co_name.startswith("<")):
                    keys.add((relpath, const.co_firstlineno, const.co_qualname))
                walk(const, relpath)

    for path in sorted((REPO / "src").rglob("*.py")):
        relpath = str(path.relative_to(REPO))
        walk(compile(path.read_text(), str(path), "exec"), relpath)
    return keys


def test_every_def_is_keyed_as_its_code_object():
    keys = [function.key for function in census.functions()]
    assert len(keys) == len(set(keys))
    assert set(keys) == code_object_keys()


def test_a_nested_function_counts_inside_its_unreached_parent(capsys):
    outer = census.Function(("src/m.py", 10, "outer"), 19, None)
    inner = census.Function(("src/m.py", 12, "outer.<locals>.inner"), 14, outer)
    kept = census.Function(("src/m.py", 30, "kept"), 39, None)
    closure = census.Function(("src/m.py", 32, "kept.<locals>.closure"), 33, kept)
    census.report([outer, inner, kept, closure], started={kept.key})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "src/m.py  (2 functions, 12 lines)"
    assert [line.split() for line in lines[1:3]] == [
        ["10", "10", "outer"], ["32", "2", "kept.<locals>.closure"]]
    assert lines[-1].startswith("total: 2 functions, 12 lines")


def test_against_compares_by_file_and_name_not_line(capsys):
    """``--against``: a function the parent's report lists stays known when
    an edit moved its line; one it does not list is flagged."""
    moved = census.Function(("src/m.py", 40, "moved"), 44, None)
    fresh = census.Function(("src/m.py", 50, "fresh"), 51, None)
    reached = census.Function(("src/n.py", 5, "reached"), 9, None)
    every = [moved, fresh, reached]
    census.report([census.Function(("src/m.py", 10, "moved"), 14, None)],
                  started=set())
    parent = capsys.readouterr().out
    assert census.listed_in(parent) == {("src/m.py", "moved")}
    assert census.newly_unreached(every, {reached.key}, parent) \
        == [fresh.key]
    assert census.newly_unreached([moved, reached], {reached.key},
                                  parent) == []
