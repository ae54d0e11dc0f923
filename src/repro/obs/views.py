"""Pull-based collectors: scattered stats surfaces → one metrics registry.

The hot paths keep their plain integer counters (``BlobClient``'s fields,
``CacheStats``, ``CoalescerStats``, ``CollectiveStats``, per-link counters
of the queued network); these collectors materialize them into a
:class:`~repro.obs.registry.MetricsRegistry` under stable dotted names at
*collection time* — typically once, after a run — so instrumentation costs
nothing while the simulation executes.

Naming fixes a long-standing drift: ``BlobSeerDeployment.stats()`` reports
``metadata_read_rpcs`` counted **server-side** (``get_nodes`` handler
invocations) while ``BlobClient.metadata_read_rpcs``
counts **client-side** issue events — same key, different quantities.
Here the two live apart as ``metadata.server.read_rpcs`` and
``metadata.client.read_rpcs``.

Lookup accounting re-asserted against the registry (see
:meth:`~repro.obs.registry.MetricsRegistry.assert_identities`), over the
collected clients' metadata tier chains — private cache, node pool, shards
(:mod:`repro.blobseer.metadata.tiers`):

* ``metadata.lookup_partition`` — per client, every lookup handed to its
  chain was answered by exactly one tier, and each tier saw exactly what
  fell through the tiers above it
  (:func:`~repro.blobseer.metadata.tiers.partition_problems`);
* ``metadata.tier_services`` — the *cross-surface* check: what each node
  pool counted equals what the chains attached to it say they asked of
  it.  Reported by
  :func:`collect_all` only when the caller attests that every client
  attached to the deployment was collected
  (:func:`~repro.blobseer.metadata.tiers.wire_problems`);
* ``cache.chunk.lookup_partition`` — per client, every non-zero read extent
  was looked up in the client's chunk cache exactly once and either served
  from it or requested from a data provider:
  ``lookups = hits + extents_fetched``.
"""

from __future__ import annotations

from typing import Dict, Iterable, TYPE_CHECKING

from repro.blobseer.metadata.tiers import partition_problems, wire_problems

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blobseer.client import BlobClient
    from repro.blobseer.deployment import BlobSeerDeployment
    from repro.cluster.cluster import Cluster
    from repro.mpi.simcomm import Communicator
    from repro.mpiio.adio.versioning import VersioningDriver
    from repro.obs.linktel import LinkTelemetry
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "collect_all",
    "collect_clients",
    "collect_cluster",
    "collect_collective",
    "collect_comms",
    "collect_deployment",
    "collect_link_telemetry",
    "collect_shared_cache",
]

#: ``BlobSeerDeployment.stats()`` keys → the registry names
#: :func:`collect_deployment` files them under.  ``metadata_read_rpcs``
#: (and friends) are *server-side* handler counts despite sharing their
#: name with the client-side fields of
#: :class:`~repro.blobseer.client.BlobClient`.
_DEPLOYMENT_STAT_NAMES: Dict[str, str] = {
    "metadata_read_rpcs": "metadata.server.read_rpcs",
    "metadata_put_rpcs": "metadata.server.put_rpcs",
    "metadata_nodes": "metadata.server.nodes",
    "providers": "storage.providers",
    "chunks": "storage.chunks",
    "stored_bytes": "storage.stored_bytes",
    "snapshots_published": "version.snapshots_published",
    "tickets_assigned": "version.tickets_assigned",
    "load_imbalance": "storage.load_imbalance",
}


# ----------------------------------------------------------------------
# per-surface collectors
# ----------------------------------------------------------------------
#: ``metadata.cache.<counter>``: present only when a collected client
#: has a private cache
_PRIVATE_COUNTERS = ("lookups", "hits", "misses", "insertions", "evictions")

#: ``cache.chunk.<counter>``: the client's cache of its own uploads
_CHUNK_COUNTERS = ("lookups", "hits", "bytes_served", "evictions")


def collect_clients(registry: "MetricsRegistry",
                    clients: Iterable["BlobClient"]) -> None:
    """Client-side counters: data volume, control RPCs, what each tier of
    the client's metadata chain counted and what its chunk cache did
    (``cache.chunk.*``); reports both lookup partitions.
    """
    clients = list(clients)
    chunk_problems = []
    for client in clients:
        registry.add("client.bytes_written", client.bytes_written)
        registry.add("client.bytes_read", client.bytes_read)
        registry.add("client.writes", client.writes)
        registry.add("client.reads", client.reads)
        registry.add("client.logical_writes", client.logical_writes)
        registry.add("metadata.client.nodes_fetched",
                     client.metadata_nodes_fetched)
        registry.add("metadata.client.put_rpcs", client.metadata_put_rpcs)
        registry.add("metadata.client.latest_rpcs", client.latest_rpcs)
        registry.add("metadata.client.latest_rpcs_elided",
                     client.latest_rpcs_elided)
        registry.add("metadata.client.cache_primed_nodes",
                     client.cache_primed_nodes)
        registry.add("metadata.client.write_control_rpcs",
                     client.write_control_rpcs)
        chain = client.tiers
        if chain.private is not None:
            for counter in _PRIVATE_COUNTERS:
                registry.add(f"metadata.cache.{counter}",
                             getattr(chain.private.stats, counter))
        registry.add("cache.shared.client_hits", chain.pool_stats.hits)
        registry.add("metadata.client.read_rpcs",
                     chain.shard_stats.read_rpcs)
        registry.add("metadata.client.fetched_lookups", chain.fetched_lookups)
        chunks = client.chunk_cache
        for counter in _CHUNK_COUNTERS:
            registry.add(f"cache.chunk.{counter}",
                         getattr(chunks.stats, counter))
        registry.add("cache.chunk.resident_bytes", chunks.resident_bytes)
        registry.add("cache.chunk.extents_fetched", client.extents_fetched)
        if chunks.stats.lookups != chunks.stats.hits + client.extents_fetched:
            chunk_problems.append(
                f"{client.name}: {chunks.stats.lookups} chunk lookups != "
                f"{chunks.stats.hits} hits + {client.extents_fetched} "
                "extents sent to providers")
        for key, value in client.coalescer.stats.snapshot().items():
            if key == "coalescing_factor":
                registry.set("coalescer.coalescing_factor", value)
            else:
                registry.add(f"coalescer.{key}", value)
    registry.report("metadata.lookup_partition", partition_problems(
        [client.tiers for client in clients]))
    registry.report("cache.chunk.lookup_partition", chunk_problems)


def collect_shared_cache(registry: "MetricsRegistry",
                         deployment: "BlobSeerDeployment") -> None:
    """Shared-tier totals across every node cache service."""
    totals = deployment.shared_cache_stats()
    registry.add("cache.shared.hits", totals["hits"])
    registry.add("cache.shared.misses", totals["misses"])
    registry.add("cache.shared.lookups", totals["hits"] + totals["misses"])
    registry.add("cache.shared.insertions", totals["insertions"])
    registry.add("cache.shared.evictions", totals["evictions"])
    registry.add("cache.shared.unpublished_rejections",
                 totals["unpublished_rejections"])
    registry.set("cache.shared.services", totals["services"])
    registry.set("cache.shared.entries", totals["entries"])


def collect_deployment(registry: "MetricsRegistry",
                       deployment: "BlobSeerDeployment") -> None:
    """Server-side storage counters under their canonical (drift-free)
    names; includes the shared-cache totals."""
    stats = deployment.stats()
    # point-in-time quantities are gauges; everything else accumulates
    gauges = {"metadata_nodes", "providers", "chunks", "stored_bytes",
              "load_imbalance"}
    for key, name in _DEPLOYMENT_STAT_NAMES.items():
        if key in gauges:
            registry.set(name, stats[key])
        else:
            registry.add(name, stats[key])
    collect_shared_cache(registry, deployment)


def collect_collective(registry: "MetricsRegistry",
                       drivers: Iterable["VersioningDriver"]) -> None:
    """Collective-buffering and collective-read counters across ranks.

    Every ``snapshot()`` key lands under its own name:
    ``collective.{write,read}.bytes_sent`` is the exchange traffic each side
    spends (encoded descriptions plus pieces and hole descriptors),
    ``collective.read.hole_bytes_elided`` what the descriptors kept off
    the interconnect.
    """
    for driver in drivers:
        for key, value in driver.aggregator.stats.snapshot().items():
            registry.add(f"collective.write.{key}", value)
        for key, value in driver.reader.stats.snapshot().items():
            registry.add(f"collective.read.{key}", value)


def collect_comms(registry: "MetricsRegistry",
                  comms: Iterable["Communicator"]) -> None:
    """MPI communicator traffic (simulated collectives)."""
    for comm in comms:
        registry.add("mpi.bytes_moved", comm.bytes_moved)
        registry.add("mpi.collectives_completed", comm.collectives_completed)


def collect_cluster(registry: "MetricsRegistry",
                    cluster: "Cluster") -> None:
    """Transport-level totals: network, RPC, disks."""
    stats = cluster.stats()
    registry.set("cluster.nodes", stats["nodes"])
    registry.add("net.bytes", stats["network_bytes"])
    registry.add("net.messages", stats["network_messages"])
    registry.add("rpc.calls", stats["rpc_calls"])
    registry.add("disk.bytes", stats["disk_bytes"])
    registry.add("disk.operations", stats["disk_operations"])
    if cluster.obs.link_telemetry is not None:
        collect_link_telemetry(registry, cluster.obs.link_telemetry)


def collect_link_telemetry(registry: "MetricsRegistry",
                           telemetry: "LinkTelemetry") -> None:
    """Per-link rollups from the queued network model's samples."""
    totals = telemetry.totals()
    registry.set("net.link.links", totals["links"])
    registry.add("net.link.reservations", totals["reservations"])
    registry.add("net.link.bytes", totals["bytes"])
    registry.set("net.link.max_queue_delay_s", totals["max_queue_delay_s"])
    for name in sorted(telemetry.samples):
        registry.set(f"net.link.{name}.utilization",
                     round(telemetry.utilization(name), 6))


# ----------------------------------------------------------------------
# the one-call form
# ----------------------------------------------------------------------
def collect_all(registry: "MetricsRegistry", *,
                cluster: "Cluster" = None,
                deployment: "BlobSeerDeployment" = None,
                clients: Iterable["BlobClient"] = (),
                drivers: Iterable["VersioningDriver"] = (),
                comms: Iterable["Communicator"] = (),
                complete_clients: bool = False) -> "MetricsRegistry":
    """Collect every surface handed in; returns the registry for chaining.

    ``complete_clients=True`` attests that ``clients`` holds *every*
    client that attached to ``deployment`` — only then can the node
    pools' own counts be reconciled with the chains attached to them, since
    a missing client would have been served with no matching client-side
    counters.
    """
    clients = list(clients)
    drivers = list(drivers)
    if drivers and not clients:
        clients = [driver.client for driver in drivers]
    if clients:
        collect_clients(registry, clients)
    if drivers:
        collect_collective(registry, drivers)
    if comms:
        collect_comms(registry, comms)
    if deployment is not None:
        collect_deployment(registry, deployment)
    if cluster is not None:
        collect_cluster(registry, cluster)
    if complete_clients and deployment is not None:
        registry.report("metadata.tier_services", wire_problems(
            [client.tiers for client in clients]))
    return registry
