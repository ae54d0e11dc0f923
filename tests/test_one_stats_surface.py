"""Guard: every counter is read through the metrics registry.

:mod:`repro.obs.views` reads the counting objects and files them in a
:class:`~repro.obs.registry.MetricsRegistry`; the bench suites, the
``vstore`` facade and the examples read their columns from such a
registry.  Two ``stats()`` methods stay, because perfbench calls both:
``BlobSeerDeployment.stats()``, a view of the collector under its
historical keys, and ``PosixFsDeployment.stats()``, the locking baseline's
counters.  A new ``stats()`` dict, or a reader going back to one, would
split the one stats surface again.  The sources are checked with ``ast``.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: the ``def stats`` that may exist under ``src/``: (file, class)
KEPT = {("src/repro/blobseer/deployment.py", "BlobSeerDeployment"),
        ("src/repro/posixfs/deployment.py", "PosixFsDeployment")}

#: what must read its counters from a registry
READERS = (sorted((SRC / "repro" / "bench").rglob("*.py"))
           + sorted((SRC / "repro" / "vstore").rglob("*.py"))
           + sorted((REPO / "examples").glob("*.py")))


def parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def stats_owners(tree):
    """The enclosing class (or ``None``) of every ``def stats``."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name == "stats":
                    yield owner
                yield from visit(child, None)
            else:
                yield from visit(child, owner)

    yield from visit(tree, None)


def legacy_reads(path):
    """Line of every ``<anything>.stats()`` call and every mention of
    ``shared_cache_stats``."""
    for node in ast.walk(parsed(path)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "stats"):
            yield node.lineno
        elif (isinstance(node, ast.Attribute)
              and node.attr == "shared_cache_stats") or (
                isinstance(node, ast.Name) and node.id == "shared_cache_stats"):
            yield node.lineno


def test_only_the_two_deployment_views_define_stats():
    found = {(str(path.relative_to(REPO)), owner)
             for path in sorted(SRC.rglob("*.py"))
             for owner in stats_owners(parsed(path))}
    assert found == KEPT


def test_suites_facade_and_examples_read_no_stats_dict():
    assert any(path.name == "scan.py" for path in READERS)
    assert any(path.name == "quickstart.py" for path in READERS)
    offenders = [f"{path.relative_to(REPO)}:{line}" for path in READERS
                 for line in legacy_reads(path)]
    assert offenders == []


def test_the_walk_sees_a_stats_call_and_def(tmp_path):
    """The checks see what they look for (a guard that finds nothing
    anywhere proves nothing)."""
    sample = tmp_path / "sample.py"
    sample.write_text(
        "class Thing:\n"
        "    def stats(self):\n"
        "        return {}\n"
        "def read(thing, deployment):\n"
        "    thing.stats()\n"
        "    return deployment.shared_cache_stats\n")
    assert list(legacy_reads(sample)) == [5, 6]
    assert list(stats_owners(parsed(sample))) == ["Thing"]
