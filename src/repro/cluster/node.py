"""A node of the simulated cluster."""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.disk import Disk
    from repro.cluster.network import Network
    from repro.simengine import Simulator


class Node:
    """A machine: a name, a NIC on the cluster network, optionally a disk.

    Compute nodes (MPI ranks) normally have no disk; storage nodes (data
    providers, OSTs) have one.  Roles are free-form strings used only for
    reporting.
    """

    def __init__(self, sim: "Simulator", name: str, network: "Network",
                 disk: Optional["Disk"] = None, role: str = "compute"):
        self.sim = sim
        self.name = name
        self.network = network
        self.disk = disk
        self.role = role

    def send(self, dst: "Node", nbytes: int):
        """Generator transferring ``nbytes`` from this node to ``dst``."""
        yield from self.network.transfer(self, dst, nbytes)

    def disk_io(self, nbytes: int):
        """Generator performing a local disk I/O (no-op without a disk)."""
        if self.disk is None:
            return
        yield from self.disk.io(nbytes)

    def disk_append(self, nbytes: int):
        """Generator appending to the local disk's log (no-op without one)."""
        if self.disk is None:
            return
        yield from self.disk.append(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} role={self.role}>"
