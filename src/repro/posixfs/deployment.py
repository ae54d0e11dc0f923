"""Deployment of the Lustre-like file system on a simulated cluster.

Its counters — the OSTs' stored bytes and objects, the MDS's files, the
lock services' grants, queued requests and queueing time — are read by
:func:`repro.obs.views.collect_locking` into the metrics registry;
:meth:`PosixFsDeployment.stats` is a view of that collector.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.errors import FileSystemError
from repro.posixfs.mds import MetadataServer, SimMetadataServer
from repro.posixfs.ost import SimOST

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster


class PosixFsDeployment:
    """One MDS plus ``num_osts`` object storage targets (each with a disk)."""

    def __init__(self, cluster: "Cluster", num_osts: int = 4,
                 default_stripe_size: int = 64 * 1024,
                 default_stripe_count: Optional[int] = None,
                 node_prefix: str = "pfs"):
        if num_osts <= 0:
            raise FileSystemError("a deployment needs at least one OST")
        self.cluster = cluster
        self.default_stripe_size = default_stripe_size
        self.default_stripe_count = default_stripe_count or num_osts

        mds_node = cluster.add_node(f"{node_prefix}-mds", role="mds")
        self.mds = SimMetadataServer(
            mds_node, MetadataServer(default_stripe_size, self.default_stripe_count))

        self.osts: List[SimOST] = []
        for index in range(num_osts):
            node = cluster.add_node(f"{node_prefix}-ost{index}", role="ost",
                                    with_disk=True)
            self.osts.append(SimOST(node))

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Storage-side statistics under their historical keys: a view of
        :func:`repro.obs.views.collect_locking`, which files them under
        registry names (``lock_wait_time`` is the lock services' queueing
        time, ``lock.wait_s`` there, not the drivers' ``fcntl`` wait).
        """
        # imported here: repro.obs.views imports this module
        from repro.obs.registry import MetricsRegistry
        from repro.obs.views import LOCKING_STAT_NAMES, collect_locking

        registry = MetricsRegistry()
        collect_locking(registry, self)
        return {key: registry.get(name)
                for key, name in LOCKING_STAT_NAMES.items()}
