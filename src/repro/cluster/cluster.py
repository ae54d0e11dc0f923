"""Cluster builder: nodes + network + RPC under one simulator."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.config import ClusterConfig
from repro.cluster.disk import Disk
from repro.cluster.network import Network, QueuedNetwork
from repro.cluster.node import Node
from repro.cluster.rpc import RpcTransport
from repro.errors import SimulationError
from repro.obs import Observability
from repro.simengine import Simulator


def placement_map(num_ranks: int, ranks_per_node: Optional[int] = None,
                  placement: Optional[Sequence[int]] = None) -> List[int]:
    """Rank -> node-index map of an MPI job.

    ``placement`` (explicit) wins: one node index per rank, any shape —
    the property suite feeds arbitrary maps through this to prove placement
    never changes read results.  Otherwise ``ranks_per_node`` consecutive
    ranks share each node (the common dense block placement).  Node indices
    are compacted to ``0..n-1`` in first-appearance order so every index
    names a node that actually hosts a rank.
    """
    if num_ranks <= 0:
        raise SimulationError(f"num_ranks must be positive, got {num_ranks}")
    if placement is not None:
        if len(placement) != num_ranks:
            raise SimulationError(
                f"placement needs one node index per rank "
                f"({num_ranks}), got {len(placement)}")
        if any(index < 0 for index in placement):
            raise SimulationError("placement indices must be non-negative")
        compact: Dict[int, int] = {}
        return [compact.setdefault(index, len(compact))
                for index in placement]
    density = 1 if ranks_per_node is None else ranks_per_node
    if density <= 0:
        raise SimulationError(
            f"ranks_per_node must be positive, got {density}")
    return [rank // density for rank in range(num_ranks)]


class Cluster:
    """A simulated cluster owning the simulator, the network and the nodes.

    Nodes are created on demand with :meth:`add_node` / :meth:`add_nodes`.
    Storage deployments (BlobSeer services, Lustre-like OSTs) and MPI jobs
    place themselves on these nodes.
    """

    def __init__(self, config: Optional[ClusterConfig] = None,
                 sim: Optional[Simulator] = None, seed: int = 0):
        self.config = config or ClusterConfig()
        self.sim = sim if sim is not None else Simulator(seed=seed)
        #: tracer + metrics registry + link telemetry + latency digests
        #: (repro.obs); the tracer is the shared no-op singleton unless
        #: ``config.tracing``
        self.obs = Observability(
            self.sim, tracing=self.config.tracing,
            network_model=self.config.network_model,
            latency_digests=self.config.latency_digests)
        if self.config.network_model == "queued":
            self.network = QueuedNetwork(self.sim, self.config, obs=self.obs)
        elif self.config.network_model == "bottleneck":
            self.network = Network(self.sim, self.config.network_latency,
                                   self.config.network_bandwidth,
                                   obs=self.obs)
        else:
            raise SimulationError(
                f"unknown network_model {self.config.network_model!r}; "
                "use 'bottleneck' or 'queued'")
        self.rpc = RpcTransport(self)
        self.nodes: Dict[str, Node] = {}

    # ------------------------------------------------------------------
    def add_node(self, name: str, role: str = "compute",
                 with_disk: bool = False) -> Node:
        """Create one node; storage roles usually request ``with_disk=True``."""
        if name in self.nodes:
            raise SimulationError(f"duplicate node name {name!r}")
        disk = None
        if with_disk:
            disk = Disk(self.sim, self.config.disk_bandwidth,
                        self.config.disk_overhead, name=f"disk:{name}")
        node = Node(self.sim, name, self.network, disk=disk, role=role)
        self.nodes[name] = node
        if self.config.network_model == "queued":
            self.network.add_node(name)
        return node

    def add_nodes(self, prefix: str, count: int, role: str = "compute",
                  with_disk: bool = False) -> List[Node]:
        """Create ``count`` nodes named ``{prefix}{index}``."""
        return [self.add_node(f"{prefix}{index}", role=role, with_disk=with_disk)
                for index in range(count)]

    def place_ranks(self, prefix: str, num_ranks: int,
                    ranks_per_node: Optional[int] = None,
                    placement: Optional[Sequence[int]] = None,
                    role: str = "compute") -> List[Node]:
        """Create compute nodes for an MPI job and return one *per rank*.

        The returned list is rank-indexed (shared nodes repeat), driven by
        :func:`placement_map`.  ``ranks_per_node`` defaults to the cluster
        config's ``ranks_per_node`` (1 = the paper's one-process-per-node
        placement); an explicit ``placement`` map overrides it.
        """
        if ranks_per_node is None and placement is None:
            ranks_per_node = self.config.ranks_per_node
        indices = placement_map(num_ranks, ranks_per_node=ranks_per_node,
                                placement=placement)
        nodes = self.add_nodes(prefix, max(indices) + 1, role=role)
        return [nodes[index] for index in indices]

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    def run(self, **kwargs):
        """Forward to :meth:`repro.simengine.Simulator.run`."""
        return self.sim.run(**kwargs)
