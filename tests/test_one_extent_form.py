"""Guard: the code under ``src/`` carries byte ranges as integer pairs.

:mod:`repro.core.regions` names the two pair forms — ``Extents``, ``(offset,
size)`` pairs, and ``Runs``, canonical ``(start, end)`` pairs — and holds
the few set operations on them.  A region-set class, algebra methods on the
bare ``Region`` record (which stays for callers that read fields by name)
or a second module-level alias for a list of int pairs would bring a
second extent form back.  The sources are checked with ``ast``.
"""

import ast
import pathlib
import re

from repro.core.regions import Region

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"
REGIONS = SRC / "repro" / "core" / "regions.py"
MODULES = sorted(SRC.rglob("*.py"))

#: a module-level alias for a sequence of int pairs, however spelled
PAIRS_ALIAS = re.compile(
    r"(typing\.)?(Sequence|List|Tuple|Iterable|list|tuple)"
    r"\[(typing\.)?(Tuple|tuple)\[int, int\](, \.\.\.)?\]")


def parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_no_module_names_region_list():
    named = [f"{path.relative_to(REPO)}:{node.lineno}"
             for path in MODULES for node in ast.walk(parsed(path))
             if (isinstance(node, ast.Name) and node.id == "RegionList")
             or (isinstance(node, ast.Attribute) and node.attr == "RegionList")
             or (isinstance(node, ast.alias) and node.name == "RegionList")
             or (isinstance(node, ast.ClassDef) and node.name == "RegionList")]
    assert named == []
    assert "RegionList" not in REGIONS.read_text()


def test_region_is_a_bare_record():
    (region,) = [node for node in parsed(REGIONS).body
                 if isinstance(node, ast.ClassDef) and node.name == "Region"]
    methods = [node.name for node in region.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert methods == ["__post_init__"]
    # and nothing grafted on from outside: the dataclass's own dunders only
    assert [name for name, value in vars(Region).items()
            if callable(value) and not name.startswith("__")] == []


def test_one_alias_per_pair_form():
    aliases = {}
    for path in MODULES:
        for node in parsed(path).body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            if (isinstance(target, ast.Name)
                    and PAIRS_ALIAS.fullmatch(ast.unparse(value))):
                aliases[f"{path.relative_to(SRC)}::{target.id}"] = \
                    ast.unparse(value)
    assert sorted(aliases) == ["repro/core/regions.py::Extents",
                               "repro/core/regions.py::Runs"]


def test_the_alias_pattern_catches_the_spellings_it_replaced():
    # a datatype's runs, a read walk's runs and a client's read pairs were
    # each spelled as their own alias before
    assert PAIRS_ALIAS.fullmatch("Tuple[Tuple[int, int], ...]")
    assert PAIRS_ALIAS.fullmatch("Sequence[Tuple[int, int]]")
    assert PAIRS_ALIAS.fullmatch("list[tuple[int, int]]")
    assert not PAIRS_ALIAS.fullmatch("Sequence[Tuple[int, bytes]]")
    assert not PAIRS_ALIAS.fullmatch("Tuple[int, int, int]")
