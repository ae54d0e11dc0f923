"""Result records and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

MiB = 1024 * 1024


@dataclass
class ThroughputSample:
    """One measured point of a throughput-vs-clients curve."""

    backend: str
    num_clients: int
    total_bytes: int
    elapsed: float

    @property
    def throughput(self) -> float:
        """Aggregated throughput in bytes of application data per second."""
        if self.elapsed <= 0:
            return float("inf")
        return self.total_bytes / self.elapsed

    @property
    def throughput_mib(self) -> float:
        """Aggregated throughput in MiB/s (the unit the paper plots)."""
        return self.throughput / MiB

    @property
    def per_client_mib(self) -> float:
        """Per-client share of the aggregated throughput (MiB/s)."""
        return self.throughput_mib / max(1, self.num_clients)


@dataclass
class MetadataPathSample:
    """One measured run of the metadata read-path microbenchmark.

    ``metadata_rpcs`` counts the RPC round-trips the clients spent resolving
    segment-tree nodes; ``cache_hits`` / ``cache_misses`` come from the
    client-side node caches; ``wall_clock_s`` is real (host) time spent
    executing the run and ``sim_elapsed_s`` the simulated time the read phase
    occupied — the two axes the perf trajectory in ``BENCH_metadata.json``
    tracks.
    """

    mode: str
    num_clients: int
    reads: int
    metadata_rpcs: int
    nodes_fetched: int
    cache_hits: int
    cache_misses: int
    sim_elapsed_s: float
    wall_clock_s: float
    #: cluster network model the run simulated (timing only, never bytes)
    network_model: str = "bottleneck"

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of node lookups answered by the client-side cache."""
        lookups = self.cache_hits + self.cache_misses
        if not lookups:
            return 0.0
        return self.cache_hits / lookups

    @property
    def rpcs_per_read(self) -> float:
        """Average metadata round-trips one vectored read cost."""
        return self.metadata_rpcs / max(1, self.reads)

    def as_row(self) -> Dict[str, object]:
        """Plain-dict form for tables and the JSON benchmark artifact."""
        return {
            "mode": self.mode,
            "clients": self.num_clients,
            "reads": self.reads,
            "metadata_rpcs": self.metadata_rpcs,
            "rpcs_per_read": self.rpcs_per_read,
            "nodes_fetched": self.nodes_fetched,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "sim_elapsed_s": self.sim_elapsed_s,
            "wall_clock_s": self.wall_clock_s,
            "network_model": self.network_model,
        }


def rpc_reduction(baseline: MetadataPathSample,
                  optimized: MetadataPathSample) -> float:
    """How many times fewer metadata round-trips the optimized path spent."""
    if optimized.metadata_rpcs <= 0:
        return float("inf")
    return baseline.metadata_rpcs / optimized.metadata_rpcs


class PerWriteRpcMetrics:
    """Derived write-side metrics shared by the sample records.

    One definition of the headline normalization for every suite that
    counts snapshots and control round-trips against logical writes
    (:class:`WritePathSample`, :class:`CollectiveSample`), so the artifacts
    stay comparable.
    """

    @property
    def coalescing_factor(self) -> float:
        """Average logical writes folded into one snapshot (1.0 = none)."""
        if not self.snapshots:
            return 0.0
        return self.logical_writes / self.snapshots

    @property
    def control_rpcs_per_write(self) -> float:
        """Control-plane round-trips (incl. put_nodes) per logical write."""
        total = self.control_rpcs + self.metadata_put_rpcs
        return total / max(1, self.logical_writes)


@dataclass
class WritePathSample(PerWriteRpcMetrics):
    """One measured run of the write-pipeline microbenchmark.

    ``control_rpcs`` counts the write-side control-plane round-trips
    (``allocate``, ``assign_ticket``, ``complete``, publication waits) and
    ``metadata_put_rpcs`` the per-shard ``put_nodes`` round-trips; both are
    normalized per *logical* write — the unit the application issued, however
    many of them one snapshot coalesced.  ``first_read_cache_hit_rate`` is
    the node-cache hit rate of the very first read after the writes (the
    write-through-population signal); ``read_cache_hit_rate`` covers the
    whole read phase.
    """

    mode: str
    num_clients: int
    logical_writes: int
    snapshots: int
    control_rpcs: int
    metadata_put_rpcs: int
    cache_primed_nodes: int
    first_read_cache_hit_rate: float
    read_cache_hit_rate: float
    cache_evictions: int
    sim_write_s: float
    sim_read_s: float
    wall_clock_s: float
    #: cluster network model the run simulated (timing only, never bytes)
    network_model: str = "bottleneck"

    def as_row(self) -> Dict[str, object]:
        """Plain-dict form for tables and the JSON benchmark artifact."""
        return {
            "mode": self.mode,
            "clients": self.num_clients,
            "logical_writes": self.logical_writes,
            "snapshots": self.snapshots,
            "coalescing_factor": self.coalescing_factor,
            "control_rpcs": self.control_rpcs,
            "metadata_put_rpcs": self.metadata_put_rpcs,
            "control_rpcs_per_write": self.control_rpcs_per_write,
            "cache_primed_nodes": self.cache_primed_nodes,
            "first_read_cache_hit_rate": self.first_read_cache_hit_rate,
            "read_cache_hit_rate": self.read_cache_hit_rate,
            "cache_evictions": self.cache_evictions,
            "sim_write_s": self.sim_write_s,
            "sim_read_s": self.sim_read_s,
            "wall_clock_s": self.wall_clock_s,
            "network_model": self.network_model,
        }


def control_rpc_reduction(baseline: PerWriteRpcMetrics,
                          optimized: PerWriteRpcMetrics) -> float:
    """How many times fewer control round-trips per logical write.

    Works on any pair of :class:`PerWriteRpcMetrics` samples
    (:class:`WritePathSample`, :class:`CollectiveSample`) — the write-path
    and collective-buffering suites share one definition of the headline
    ratio.
    """
    if optimized.control_rpcs_per_write <= 0:
        return float("inf")
    return baseline.control_rpcs_per_write / optimized.control_rpcs_per_write


@dataclass
class CollectiveSample(PerWriteRpcMetrics):
    """One measured run of the collective-write microbenchmark.

    ``control_rpcs``/``metadata_put_rpcs`` aggregate the write-side control
    traffic of *all* ranks' clients; ``logical_writes`` counts the
    application-issued collective writes (one per rank per round), so
    ``control_rpcs_per_write`` is directly comparable between the per-rank
    baseline and the aggregated path.  ``exchange_bytes`` is the MPI-side
    two-phase traffic the aggregation spends instead — it moves over the
    compute interconnect, not the storage control plane, and is reported so
    the trade is visible.
    """

    mode: str
    num_ranks: int
    num_aggregators: int
    rounds: int
    logical_writes: int
    snapshots: int
    control_rpcs: int
    metadata_put_rpcs: int
    exchange_bytes: int
    collectives_completed: int
    latest_rpcs_elided: int
    sim_write_s: float
    wall_clock_s: float
    #: cluster network model the run simulated (timing only, never bytes)
    network_model: str = "bottleneck"
    #: flat RPC round-trip percentile columns (``rpc_latency_p50``...)
    #: from the run's latency digests; empty when digests were off
    rpc_latency: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """Plain-dict form for tables and the JSON benchmark artifact."""
        row = {
            "mode": self.mode,
            "ranks": self.num_ranks,
            "aggregators": self.num_aggregators,
            "rounds": self.rounds,
            "logical_writes": self.logical_writes,
            "snapshots": self.snapshots,
            "coalescing_factor": self.coalescing_factor,
            "control_rpcs": self.control_rpcs,
            "metadata_put_rpcs": self.metadata_put_rpcs,
            "control_rpcs_per_write": self.control_rpcs_per_write,
            "exchange_bytes": self.exchange_bytes,
            "collectives_completed": self.collectives_completed,
            "latest_rpcs_elided": self.latest_rpcs_elided,
            "sim_write_s": self.sim_write_s,
            "wall_clock_s": self.wall_clock_s,
            "network_model": self.network_model,
        }
        row.update(self.rpc_latency)
        return row


@dataclass
class CollectiveReadSample:
    """One measured run of the collective-read microbenchmark.

    ``metadata_rpcs`` aggregates every rank's segment-tree round-trips and
    ``latest_rpcs`` the version-manager ``latest`` round-trips; both are
    normalized per *logical* read — one per rank per round, however many of
    them one resolver's stripe walk served.  ``exchange_bytes`` is the
    MPI-side scatter/plan traffic the aggregation spends instead (compute
    interconnect, not the storage control plane), ``plan_nodes_absorbed``
    counts cache entries the ranks warmed from broadcast plans, and the
    ``post_*`` columns measure one independent re-read per rank after the
    collective phase — the cache-warming signal.
    """

    mode: str
    num_ranks: int
    num_resolvers: int
    rounds: int
    logical_reads: int
    metadata_rpcs: int
    latest_rpcs: int
    nodes_fetched: int
    plan_nodes_absorbed: int
    exchange_bytes: int
    collectives_completed: int
    post_metadata_rpcs: int
    post_latest_rpcs: int
    sim_read_s: float
    wall_clock_s: float
    #: never-written bytes shipped as compact hole descriptors instead of
    #: literal zeros (zero-extent elision: the ``exchange_bytes`` drop)
    hole_bytes_elided: int = 0
    #: plan entries the resolvers did not re-ship because an earlier
    #: collective had already sent them to the whole group
    plan_nodes_elided: int = 0
    #: cluster network model the run simulated (timing only, never bytes)
    network_model: str = "bottleneck"
    #: flat RPC round-trip percentile columns (``rpc_latency_p50``...)
    #: from the run's latency digests; empty when digests were off
    rpc_latency: Dict[str, float] = field(default_factory=dict)

    @property
    def metadata_rpcs_per_read(self) -> float:
        """Control-plane round-trips (tree walk + ``latest``) per read."""
        total = self.metadata_rpcs + self.latest_rpcs
        return total / max(1, self.logical_reads)

    def as_row(self) -> Dict[str, object]:
        """Plain-dict form for tables and the JSON benchmark artifact."""
        row = {
            "mode": self.mode,
            "ranks": self.num_ranks,
            "resolvers": self.num_resolvers,
            "rounds": self.rounds,
            "logical_reads": self.logical_reads,
            "metadata_rpcs": self.metadata_rpcs,
            "latest_rpcs": self.latest_rpcs,
            "metadata_rpcs_per_read": self.metadata_rpcs_per_read,
            "nodes_fetched": self.nodes_fetched,
            "plan_nodes_absorbed": self.plan_nodes_absorbed,
            "plan_nodes_elided": self.plan_nodes_elided,
            "exchange_bytes": self.exchange_bytes,
            "hole_bytes_elided": self.hole_bytes_elided,
            "collectives_completed": self.collectives_completed,
            "post_metadata_rpcs": self.post_metadata_rpcs,
            "post_latest_rpcs": self.post_latest_rpcs,
            "sim_read_s": self.sim_read_s,
            "wall_clock_s": self.wall_clock_s,
            "network_model": self.network_model,
        }
        row.update(self.rpc_latency)
        return row


def read_rpc_reduction(baseline: CollectiveReadSample,
                       optimized: CollectiveReadSample) -> float:
    """How many times fewer metadata round-trips per logical read."""
    if optimized.metadata_rpcs_per_read <= 0:
        return float("inf")
    return baseline.metadata_rpcs_per_read / optimized.metadata_rpcs_per_read


@dataclass
class SharedCacheSample:
    """One measured run of the node-local shared-cache microbenchmark.

    ``metadata_rpcs`` counts every client's segment-tree round-trips over
    the read phase (``latest`` is pinned once up front and reported
    separately), normalized per logical read.  The lookup partition —
    ``private_hits + shared_hits + fetched_lookups == lookups`` — is exact
    by construction and pinned by the conformance suite; ``shared_*``
    columns aggregate the per-node service stats, and
    ``prefetched_nodes`` counts extras shipped by speculative child
    prefetch (the node-traffic side of that trade).
    """

    mode: str
    pattern: str
    policy: str
    capacity: Optional[int]
    num_clients: int
    ranks_per_node: int
    rounds: int
    logical_reads: int
    metadata_rpcs: int
    latest_rpcs: int
    private_hits: int
    shared_hits: int
    fetched_lookups: int
    shared_evictions: int
    shared_rejections: int
    prefetched_nodes: int
    sim_read_s: float
    wall_clock_s: float
    #: cluster network model the run simulated (timing only, never bytes)
    network_model: str = "bottleneck"

    @property
    def lookups(self) -> int:
        """Deduplicated metadata lookups the read phase performed."""
        return self.private_hits + self.shared_hits + self.fetched_lookups

    @property
    def rpcs_per_read(self) -> float:
        """Metadata tree-walk round-trips per logical read."""
        return self.metadata_rpcs / max(1, self.logical_reads)

    @property
    def shared_hit_rate(self) -> float:
        """Fraction of lookups the shared tier answered."""
        if not self.lookups:
            return 0.0
        return self.shared_hits / self.lookups

    def as_row(self) -> Dict[str, object]:
        """Plain-dict form for tables and the JSON benchmark artifact."""
        return {
            "mode": self.mode,
            "pattern": self.pattern,
            "policy": self.policy,
            "capacity": self.capacity,
            "clients": self.num_clients,
            "ranks_per_node": self.ranks_per_node,
            "rounds": self.rounds,
            "logical_reads": self.logical_reads,
            "metadata_rpcs": self.metadata_rpcs,
            "rpcs_per_read": self.rpcs_per_read,
            "latest_rpcs": self.latest_rpcs,
            "lookups": self.lookups,
            "private_hits": self.private_hits,
            "shared_hits": self.shared_hits,
            "fetched_lookups": self.fetched_lookups,
            "shared_hit_rate": self.shared_hit_rate,
            "shared_evictions": self.shared_evictions,
            "shared_rejections": self.shared_rejections,
            "prefetched_nodes": self.prefetched_nodes,
            "sim_read_s": self.sim_read_s,
            "wall_clock_s": self.wall_clock_s,
            "network_model": self.network_model,
        }


def shared_rpc_reduction(baseline: SharedCacheSample,
                         optimized: SharedCacheSample) -> float:
    """How many times fewer metadata round-trips per logical read."""
    if optimized.rpcs_per_read <= 0:
        return float("inf")
    return baseline.rpcs_per_read / optimized.rpcs_per_read


@dataclass
class CoopCacheSample:
    """One measured run of the cooperative cross-node cache microbenchmark.

    The headline is ``server_rpcs_per_read``: **authoritative** metadata
    shard round-trips (server-side ``get_node``/``get_nodes`` handler
    invocations, wherever they were issued from — clients or peer
    read-throughs) per logical read.  The node-local shared tier alone
    flattens this at the ``1/ranks_per_node`` ideal (one fetch per node);
    the cooperative tier pushes it below, and falling with node count,
    because one node's fetch serves the whole cluster over peer probes.
    The probe/peer columns report what the tier spends and saves;
    ``coalesced_fetches`` counts upstream fetches avoided by parking
    simultaneous missers on one in-flight fetch.
    """

    mode: str
    num_nodes: int
    ranks_per_node: int
    num_clients: int
    rounds: int
    logical_reads: int
    server_read_rpcs: int
    client_metadata_rpcs: int
    probe_rpcs: int
    peer_hits: int
    peer_rejections: int
    probe_misses: int
    read_throughs: int
    unavailable_probes: int
    coalesced_fetches: int
    private_hits: int
    shared_hits: int
    fetched_lookups: int
    sim_read_s: float
    wall_clock_s: float
    #: cluster network model the run simulated (timing only, never bytes)
    network_model: str = "bottleneck"

    @property
    def lookups(self) -> int:
        """Deduplicated metadata lookups (four-way partition total)."""
        return (self.private_hits + self.shared_hits + self.peer_hits
                + self.fetched_lookups)

    @property
    def server_rpcs_per_read(self) -> float:
        """Authoritative shard round-trips per logical read (headline)."""
        return self.server_read_rpcs / max(1, self.logical_reads)

    @property
    def peer_hit_rate(self) -> float:
        """Fraction of lookups a cooperative peer answered."""
        if not self.lookups:
            return 0.0
        return self.peer_hits / self.lookups

    def as_row(self) -> Dict[str, object]:
        """Plain-dict form for tables and the JSON benchmark artifact."""
        return {
            "mode": self.mode,
            "nodes": self.num_nodes,
            "ranks_per_node": self.ranks_per_node,
            "clients": self.num_clients,
            "rounds": self.rounds,
            "logical_reads": self.logical_reads,
            "server_read_rpcs": self.server_read_rpcs,
            "server_rpcs_per_read": self.server_rpcs_per_read,
            "client_metadata_rpcs": self.client_metadata_rpcs,
            "probe_rpcs": self.probe_rpcs,
            "peer_hits": self.peer_hits,
            "peer_hit_rate": self.peer_hit_rate,
            "peer_rejections": self.peer_rejections,
            "probe_misses": self.probe_misses,
            "read_throughs": self.read_throughs,
            "unavailable_probes": self.unavailable_probes,
            "coalesced_fetches": self.coalesced_fetches,
            "lookups": self.lookups,
            "private_hits": self.private_hits,
            "shared_hits": self.shared_hits,
            "fetched_lookups": self.fetched_lookups,
            "sim_read_s": self.sim_read_s,
            "wall_clock_s": self.wall_clock_s,
            "network_model": self.network_model,
        }


def coop_rpc_reduction(baseline: CoopCacheSample,
                       optimized: CoopCacheSample) -> float:
    """How many times fewer authoritative shard round-trips per read."""
    if optimized.server_rpcs_per_read <= 0:
        return float("inf")
    return baseline.server_rpcs_per_read / optimized.server_rpcs_per_read


def speedup(ours: ThroughputSample, baseline: ThroughputSample) -> float:
    """Throughput ratio of our approach over the baseline (paper's headline)."""
    base = baseline.throughput
    if base <= 0:
        return float("inf")
    return ours.throughput / base


def scaling_efficiency(samples: List[ThroughputSample]) -> Dict[int, float]:
    """Throughput relative to the single-client point, per client count."""
    if not samples:
        return {}
    reference = min(samples, key=lambda sample: sample.num_clients)
    return {sample.num_clients: sample.throughput / reference.throughput
            for sample in samples}
