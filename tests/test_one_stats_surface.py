"""Guard: every counter is read through the metrics registry.

:mod:`repro.obs.views` reads the counting objects of both backends and
files them in a :class:`~repro.obs.registry.MetricsRegistry`; the bench
suites, the ``vstore`` facade and the examples read their columns from
such a registry.  Two ``stats()`` methods stay, because perfbench calls
both: ``BlobSeerDeployment.stats()`` and ``PosixFsDeployment.stats()``,
each a view of its backend's collector under its historical keys.  A new
``stats()`` dict, a ``stats()`` that counts on its own, a reader going
back to one or a bench module summing an object's counter through
``getattr(obj, "name", default)`` would split the one stats surface
again.  The sources are checked with ``ast``.  The counters no reader
read are gone, and stay gone.
"""

import ast
import pathlib

from repro.blobseer.deployment import BlobSeerDeployment
from repro.blobseer.metadata.store import MetadataStore
from repro.blobseer.provider import DataProviderStore
from repro.bench.harness import RunResult
from repro.cluster.cluster import Cluster
from repro.mpiio.adio.posix_locking import PosixLockingDriver
from repro.mpiio.adio.versioning import VersioningDriver
from repro.posixfs.deployment import PosixFsDeployment
from repro.posixfs.ost import ObjectStore

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: the ``def stats`` that may exist under ``src/``: (file, class)
KEPT = {("src/repro/blobseer/deployment.py", "BlobSeerDeployment"),
        ("src/repro/posixfs/deployment.py", "PosixFsDeployment")}

#: the bench modules, which read no counter off an object themselves
BENCH = sorted((SRC / "repro" / "bench").rglob("*.py"))

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


def stats_defs(tree):
    """Every ``def stats`` of a parsed module."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "stats"]


def collector_calls(function):
    """Names of the ``collect_*`` functions a function body calls."""
    return [node.func.id for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id.startswith("collect_")]


def counter_getattrs(path):
    """Line of every ``getattr(obj, "<literal name>", default)`` call."""
    for node in ast.walk(parsed(path)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) == 3
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            yield node.lineno


def test_only_the_two_deployment_views_define_stats():
    found = {(str(path.relative_to(REPO)), owner)
             for path in sorted(SRC.rglob("*.py"))
             for owner in stats_owners(parsed(path))}
    assert found == KEPT


def test_both_deployment_stats_are_views_of_a_collector():
    for file, _owner in sorted(KEPT):
        [function] = stats_defs(parsed(REPO / file))
        assert collector_calls(function), file


def test_bench_reads_no_counter_through_a_getattr_default():
    assert any(path.name == "harness.py" for path in BENCH)
    offenders = [f"{path.relative_to(REPO)}:{line}" for path in BENCH
                 for line in counter_getattrs(path)]
    assert offenders == []


def test_counters_nobody_read_are_gone():
    cluster = Cluster()
    locking = PosixFsDeployment(cluster, num_osts=1)
    versioning = BlobSeerDeployment(cluster, num_providers=1,
                                    num_metadata_providers=1)
    node = cluster.add_node("fresh")
    locking_driver = PosixLockingDriver(locking, node)
    gone = [
        (locking_driver, ("bytes_written", "bytes_read", "write_calls",
                          "read_calls", "_account_write", "_account_read")),
        (VersioningDriver(versioning, node),
         ("bytes_written", "bytes_read", "write_calls", "read_calls")),
        (locking_driver.client, ("bytes_written", "bytes_read",
                                 "lock_wait_time")),
        (MetadataStore(), ("nodes_read", "nodes_written")),
        (cluster.rpc, ("total_request_bytes", "total_response_bytes")),
        (DataProviderStore("p0"), ("bytes_written", "bytes_read")),
        (ObjectStore("ost0"), ("bytes_written", "bytes_read")),
    ]
    present = [f"{type(owner).__name__}.{name}" for owner, names in gone
               for name in names if hasattr(owner, name)]
    assert present == []
    assert "lock_wait_time" not in RunResult.__dataclass_fields__
    # the drivers' own fcntl wait is the one driver counter with a reader
    assert locking_driver.lock_wait_time == 0.0


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
        "    return deployment.shared_cache_stats\n"
        "class View:\n"
        "    def stats(self):\n"
        "        return collect_view(self)\n"
        "def wait(driver):\n"
        "    return getattr(driver, 'lock_wait_time', 0.0)\n")
    assert list(legacy_reads(sample)) == [5, 6]
    assert list(stats_owners(parsed(sample))) == ["Thing", "View"]
    counting, view = stats_defs(parsed(sample))
    assert collector_calls(counting) == []
    assert collector_calls(view) == ["collect_view"]
    assert list(counter_getattrs(sample)) == [11]
