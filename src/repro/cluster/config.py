"""Cluster-wide configuration knobs.

All values use SI units: bytes, bytes per second, seconds.  The defaults are
loosely calibrated on the Grid'5000 clusters used by the paper (Gigabit
Ethernet, commodity SATA disks); they define the absolute scale of the
simulated throughput axis but not the relative behaviour of the compared
approaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


MiB = 1024 * 1024
GiB = 1024 * MiB


@dataclass
class ClusterConfig:
    """Hardware parameters of the simulated cluster."""

    #: network cost model: ``"bottleneck"`` (seed full-bisection switch with
    #: half-duplex NICs) or ``"queued"`` (per-link FIFO queues over a two-tier
    #: leaf-switch topology with a CoDel standing-queue signal)
    network_model: str = "bottleneck"
    #: queued model: nodes per leaf switch (filled in node-creation order)
    nodes_per_switch: int = 16
    #: queued model: one-way latency between switches; ``None`` = 2.5x the
    #: intra-switch ``network_latency``
    cross_switch_latency: Optional[float] = None
    #: queued model: bandwidth of each switch uplink/downlink; ``None`` = 4x
    #: the NIC ``network_bandwidth``
    switch_bandwidth: Optional[float] = None
    #: queued model: CoDel target standing-queue delay (seconds)
    codel_target: float = 1e-3
    #: queued model: CoDel observation interval (seconds)
    codel_interval: float = 20e-3
    #: queued model: fractional uniform jitter applied to propagation
    #: latency (0 disables).  Drawn from the ``network`` RNG scope, so it
    #: never perturbs workload bytes
    network_jitter: float = 0.0
    #: one-way network latency per message (seconds)
    network_latency: float = 100e-6
    #: NIC bandwidth per node (bytes/second); GbE ~ 117 MiB/s
    network_bandwidth: float = 117 * MiB
    #: disk sequential bandwidth (bytes/second)
    disk_bandwidth: float = 70 * MiB
    #: fixed per-I/O disk overhead (seconds) — seek + controller
    disk_overhead: float = 1e-3
    #: CPU cost charged per RPC handled by a service (seconds)
    rpc_handling_overhead: float = 20e-6
    #: size in bytes assumed for small control messages (tickets, acks, ...)
    control_message_size: int = 256
    #: size in bytes of one serialized metadata tree node
    metadata_node_size: int = 512
    #: size in bytes of one (offset, size, version hint) entry in a batched
    #: metadata lookup request
    metadata_request_size: int = 32
    #: whether storage services persist chunk/object payloads to their disk
    #: (True charges disk time on the data path; False models memory-backed
    #: providers, as BlobSeer deployments on Grid'5000 often used)
    persist_to_disk: bool = True
    #: default LRU capacity (entries) of the client-side metadata node
    #: caches; ``None`` keeps them unbounded.  Individual clients can
    #: override this per instance (``metadata_cache_capacity=``)
    metadata_cache_capacity: Optional[int] = None
    #: default aggregator count for two-phase collective buffering (ROMIO's
    #: ``cb_nodes``).  ``None`` picks one aggregator per four ranks; drivers
    #: can override per instance (``collective_aggregators=``).  The count is
    #: always clamped to the communicator size
    collective_aggregators: Optional[int] = None
    #: default rank->node placement density of MPI jobs: how many rank
    #: processes share one compute node.  1 reproduces the paper's
    #: one-process-per-node Grid'5000 placement; larger values model
    #: multi-core nodes, where co-located ranks share a NIC *and* the
    #: node-local metadata cache.  Jobs can override per launch
    #: (``ranks_per_node=`` / an explicit ``placement`` map)
    ranks_per_node: int = 1
    #: whether clients attach to their compute node's shared metadata cache
    #: tier (:class:`~repro.blobseer.metadata.sharedcache.NodeCacheService`).
    #: Off by default so single-rank-per-node baselines stay unchanged;
    #: individual clients can override (``shared_metadata_cache=``)
    shared_metadata_cache: bool = False
    #: entry bound of each node's shared cache (``None`` = unbounded).  A
    #: full pool evicts its least recently used entry
    #: (:mod:`repro.blobseer.metadata.sharedcache`)
    shared_cache_capacity: Optional[int] = None
    #: accepted and ignored: the cooperative cross-node metadata tier it
    #: switched on is gone (a read costs one round trip, and peers only
    #: slowed it down).  It stays a field because perfbench's frozen
    #: ``shared_scan`` workload still sets it
    cooperative_cache: bool = False
    #: record causal spans (file op → collective phase → commit → commit
    #: stage → RPC → link) plus per-link telemetry on the queued
    #: network model, exportable as Chrome trace-event JSON
    #: (:mod:`repro.obs`).  Timestamps come from the simulation clock only,
    #: so tracing never changes simulated behaviour and traces are
    #: byte-stable across runs; disabled (the default) costs one attribute
    #: test per instrumented site
    tracing: bool = False
    #: collect deterministic fixed-log-bucket latency histograms
    #: (p50/p95/p99/max) for RPC round-trips, link queue delays and
    #: File-layer operations into the metrics registry
    #: (:mod:`repro.obs.digest`).  Independent of ``tracing`` so digest
    #: columns can ride in headline (untraced) bench rows; disabled (the
    #: default) costs one attribute test per instrumented site
    latency_digests: bool = False

    def copy(self, **overrides) -> "ClusterConfig":
        """A copy of the config with selected fields replaced."""
        data = self.__dict__.copy()
        data.update(overrides)
        return ClusterConfig(**data)

    def as_dict(self) -> dict:
        """All knobs as one flat JSON-serializable dict, in field order.

        The scenario fuzzer dumps this next to every flagged run so a
        failure's exact cluster shape travels with its seed.
        """
        return {name: getattr(self, name)
                for name in self.__dataclass_fields__}
