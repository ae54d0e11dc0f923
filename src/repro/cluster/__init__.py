"""Simulated cluster: nodes, disks, network and RPC transport.

The storage services (data providers, metadata providers, version manager,
OSTs, MDS, lock manager) and the MPI ranks all run as discrete-event
processes placed on :class:`~repro.cluster.node.Node` instances.  Time is
charged for:

* network transfers — per-message latency plus ``size / bandwidth``, with the
  sender's and receiver's NICs modelled as FIFO queues so that concurrent
  transfers through the same node queue up (this is what makes a single
  storage server a bottleneck and striping beneficial);
* disk I/O — per-operation overhead plus ``size / disk_bandwidth``, with one
  FIFO disk queue per storage node;
* service handlers — whatever the handler itself yields (e.g. lock waiting).

The defaults approximate the Grid'5000 nodes used in the paper (GbE network,
SATA disks); absolute values only set the scale of the simulated-throughput
axis, the comparative shapes do not depend on them.
"""

from repro.cluster.config import ClusterConfig
from repro.cluster.disk import Disk
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.cluster import Cluster, placement_map
from repro.cluster.rpc import RpcTransport, Service

__all__ = [
    "ClusterConfig",
    "Cluster",
    "placement_map",
    "Disk",
    "Network",
    "Node",
    "RpcTransport",
    "Service",
]
