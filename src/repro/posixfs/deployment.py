"""Deployment of the Lustre-like file system on a simulated cluster."""

from __future__ import annotations

import math
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
        """Aggregate storage-side statistics for benchmark reports."""
        return {
            "osts": len(self.osts),
            "stored_bytes": sum(ost.store.stored_bytes() for ost in self.osts),
            "objects": sum(ost.store.object_count() for ost in self.osts),
            "files": self.mds.server.file_count(),
            "locks_granted": sum(ost.locks.manager.locks_granted for ost in self.osts),
            "locks_queued": sum(ost.locks.manager.locks_queued for ost in self.osts),
            "lock_wait_time": math.fsum(ost.locks.total_wait_time
                                        for ost in self.osts),
        }
