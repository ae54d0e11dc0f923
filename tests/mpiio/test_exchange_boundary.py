"""Guard: the two-phase exchange knows no storage backend.

``repro.mpiio.adio.collective`` drives whatever client each rank holds
through a few hook methods; every versioning-specific step lives behind
them, on :class:`~repro.blobseer.client.BlobClient`.  An import of
``repro.blobseer`` there, or a reach into a versioning client's parts, would
tie the exchange to one backend again.  The module is checked as source,
with ``ast``, so a lazy import inside a function counts too.
"""

import ast
import pathlib

from repro.blobseer.client import BlobClient

SOURCE = (pathlib.Path(__file__).resolve().parents[2]
          / "src" / "repro" / "mpiio" / "adio" / "collective.py")
PACKAGE = ["repro", "mpiio", "adio"]

#: the parts of a versioning client the exchange must never name
INTERNALS = {"writepath", "coalescer", "tiers", "deployment", "version_hints",
             "_descriptor"}

#: what the exchange may ask of a rank's client: the hook methods, the
#: read-side fetch, its span context and its cluster (the cost model)
SURFACE = {"collective_flush", "collective_geometry", "collective_place",
           "collective_stage", "collective_publish", "collective_forget",
           "collective_settle", "collective_pin", "note_collective_read",
           "drop_read_hint", "fetch_extents", "trace_ctx", "cluster"}


def parsed():
    return ast.parse(SOURCE.read_text(), filename=str(SOURCE))


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = PACKAGE[:len(PACKAGE) + 1 - node.level] if node.level \
                else []
            yield ".".join(base + ([node.module] if node.module else []))


def client_attributes(tree):
    """Every attribute read off ``client`` or ``self.client``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == "client" or (
                isinstance(owner, ast.Attribute) and owner.attr == "client"):
            yield node.attr


def test_the_exchange_imports_nothing_from_a_backend():
    modules = list(imported_modules(parsed()))
    assert "repro.core.listio" in modules  # the walk sees the imports
    assert [module for module in modules
            if module.split(".")[:2] in (["repro", "blobseer"],
                                         ["repro", "posixfs"])] == []


def test_the_exchange_names_no_client_internals():
    tree = parsed()
    named = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    assert named & INTERNALS == set()
    used = set(client_attributes(tree))
    assert "collective_publish" in used
    assert used <= SURFACE, used - SURFACE


def test_a_stock_blob_client_implements_the_whole_surface():
    missing = [name for name in SURFACE - {"trace_ctx", "cluster"}
               if not callable(getattr(BlobClient, name, None))]
    assert missing == []
