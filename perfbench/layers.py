"""Which layer a source file belongs to: the host-time account's buckets.

Layers are the repo's modules.  Every file under ``src/repro/`` is claimed
by exactly one rule below; a new module that no rule claims makes
:func:`layer_of_path` raise (and ``perfbench/tests`` fail) instead of
vanishing into a catch-all.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from perfbench import REPO_ROOT, SRC_DIR

#: (path prefix relative to ``src/repro/``, layer); first match wins, so
#: the specific files come before their package
RULES: Tuple[Tuple[str, str], ...] = (
    ("simengine/", "simengine"),
    ("cluster/network.py", "cluster.network"),
    ("cluster/rpc.py", "cluster.rpc"),
    ("cluster/disk.py", "cluster.disk"),
    ("cluster/", "cluster.other"),
    ("core/regions.py", "core.regions"),
    ("core/listio.py", "core.listio"),
    ("blobseer/client.py", "blobseer.client"),
    ("blobseer/metadata/", "blobseer.metadata"),
    ("blobseer/writepath/", "blobseer.writepath"),
    ("blobseer/version_manager.py", "blobseer.version_manager"),
    ("blobseer/provider.py", "blobseer.provider"),
    ("blobseer/provider_manager.py", "blobseer.provider"),
    ("blobseer/", "blobseer.other"),
    ("vstore/", "vstore"),
    ("mpi/", "mpi"),
    ("mpiio/file.py", "mpiio.file"),
    ("mpiio/flatten.py", "mpiio.flatten"),
    ("mpiio/adio/collective.py", "mpiio.adio.collective"),
    ("mpiio/adio/", "mpiio.adio"),
    ("posixfs/lock_manager.py", "posixfs.lock_manager"),
    ("posixfs/client.py", "posixfs.client"),
    ("posixfs/ost.py", "posixfs.ost"),
    ("posixfs/", "posixfs.other"),
    ("obs/", "obs"),
    ("workloads/", "workloads"),
    # imported or raised on the way, never on a hot path
    ("core/atomicity.py", "repro.misc"),
    ("core/__init__.py", "repro.misc"),
    ("mpiio/__init__.py", "repro.misc"),
    ("errors.py", "repro.misc"),
    ("__init__.py", "repro.misc"),
    ("_version.py", "repro.misc"),
    # the older harnesses and the fuzzer: perfbench never drives them
    ("bench/", "not_driven"),
    ("fuzz/", "not_driven"),
)

#: every layer of the host account, in reporting order
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _, layer in RULES] + ["python", "perfbench"]))

_REPRO_DIR = os.path.join(SRC_DIR, "repro") + os.sep
_PERFBENCH_DIR = os.path.join(REPO_ROOT, "perfbench") + os.sep


def rule_of_module(relative: str) -> Tuple[str, str]:
    """The ``(prefix, layer)`` rule claiming a path relative to
    ``src/repro/`` (``/``-separated)."""
    for prefix, layer in RULES:
        if relative == prefix or (prefix.endswith("/")
                                  and relative.startswith(prefix)):
            return prefix, layer
    raise KeyError(f"src/repro/{relative} belongs to no perfbench layer; "
                   "add a rule to perfbench/layers.py")


def layer_of_module(relative: str) -> str:
    return rule_of_module(relative)[1]


def layer_of_path(filename: str) -> str:
    """Layer of a profiler file name: builtins, the standard library and
    site-packages are ``python``."""
    if filename.startswith(_REPRO_DIR):
        return layer_of_module(
            filename[len(_REPRO_DIR):].replace(os.sep, "/"))
    if filename.startswith(_PERFBENCH_DIR):
        return "perfbench"
    return "python"


def bucket_profile(stats: Dict[tuple, tuple]) -> Dict[str, Dict[str, float]]:
    """Fold ``cProfile`` rows into ``layer -> {self_s, calls}``.

    ``stats`` is ``pstats.Stats(profile).stats``: ``(file, line, function)
    -> (primitive calls, calls, self seconds, cumulative seconds, callers)``.
    """
    buckets = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    cache: Dict[str, str] = {}
    for (filename, _line, _function), (_cc, calls, self_s, _ct, _callers) \
            in stats.items():
        layer = cache.get(filename)
        if layer is None:
            layer = cache[filename] = layer_of_path(filename)
        buckets[layer]["self_s"] += self_s
        buckets[layer]["calls"] += calls
    return buckets
