"""Pull-based collectors: the one read side of the stack's counters.

The hot paths keep their plain integer counters (``BlobClient``'s fields,
``CacheStats``, ``CoalescerStats``, ``CollectiveStats``, the stores, lock
managers, disks, network and RPC transport, per-link counters of the
queued network); these collectors read those counting objects directly
and materialize them into a :class:`~repro.obs.registry.MetricsRegistry`
under stable dotted names at *collection time* — typically once, after a
run — so instrumentation costs nothing while the simulation executes.
Both backends are read here: :func:`collect_deployment` reads the
versioning store, :func:`collect_locking` the Lustre-like baseline, and
:func:`collect_all` picks between them from the deployment it is handed.
Every bench suite, the quickstart example and perfbench read their
columns from a registry collected here; ``BlobSeerDeployment.stats()``
and ``PosixFsDeployment.stats()`` are views of their backend's collector
under their historical keys.  ``add`` accumulates, so a reading takes a
fresh registry.

The shards and the clients both count metadata read round-trips, and the
two counts differ: a shard counts the ``get_nodes`` requests it served to
every client, seeders included (``metadata_read_rpcs`` in
``BlobSeerDeployment.stats()``), a collected client the ones it issued
(its tier chain's ``shard_stats.read_rpcs``).  The registry keeps them
apart as ``metadata.server.read_rpcs`` and ``metadata.client.read_rpcs``.

The locking side has the same split for lock waits.  ``lock.wait_s`` is
the server side: the time lock requests sat queued on every OST's lock
service, summed over both lock namespaces — the MPI-I/O layer's
``fcntl`` locks and the file system's own ``data`` extent locks, which a
POSIX access takes when no ``fcntl`` lock covers it (conflict
detection's lock-free path does).  ``lock.fcntl_wait_s`` is the client
side: each rank's locking driver times its ``fcntl`` acquisitions from
the first request to the last grant, round trips to every OST included
(``PosixLockingDriver.lock_wait_time``), and the collector sums the
ranks' times with :func:`math.fsum` in rank order.  It is the
``lock_wait_s`` column of the paper's experiments.

Consistency checks reported on the registry (see
:meth:`~repro.obs.registry.MetricsRegistry.assert_identities`), over the
collected clients' metadata tier chains — private cache, node pool, shards
(:mod:`repro.blobseer.metadata.tiers`) — and the node pools themselves:

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
  ``lookups = hits + extents_fetched``;
* ``cache.shared.attachments`` — no node pool lists a client twice
  (``attach`` is idempotent, so a duplicate means corrupted bookkeeping).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, TYPE_CHECKING

from repro.blobseer.metadata.tiers import partition_problems, wire_problems
from repro.posixfs.deployment import PosixFsDeployment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blobseer.client import BlobClient
    from repro.blobseer.deployment import BlobSeerDeployment
    from repro.cluster.cluster import Cluster
    from repro.mpi.simcomm import Communicator
    from repro.mpiio.adio.posix_locking import PosixLockingDriver
    from repro.mpiio.adio.versioning import VersioningDriver
    from repro.obs.linktel import LinkTelemetry
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "DEPLOYMENT_STAT_NAMES",
    "LOCKING_STAT_NAMES",
    "SHARED_CACHE_COUNTERS",
    "collect_all",
    "collect_clients",
    "collect_cluster",
    "collect_collective",
    "collect_comms",
    "collect_deployment",
    "collect_link_telemetry",
    "collect_locking",
    "collect_shared_cache",
]

#: ``BlobSeerDeployment.stats()`` keys, in its order → the registry names
#: :func:`collect_deployment` files them under.  ``metadata_read_rpcs``
#: and ``metadata_put_rpcs`` are *server-side* handler counts, not what
#: the clients issued (``metadata.client.*``).
DEPLOYMENT_STAT_NAMES: Dict[str, str] = {
    "providers": "storage.providers",
    "chunks": "storage.chunks",
    "stored_bytes": "storage.stored_bytes",
    "metadata_nodes": "metadata.server.nodes",
    "metadata_read_rpcs": "metadata.server.read_rpcs",
    "metadata_put_rpcs": "metadata.server.put_rpcs",
    "snapshots_published": "version.snapshots_published",
    "tickets_assigned": "version.tickets_assigned",
    "load_imbalance": "storage.load_imbalance",
}

#: ``PosixFsDeployment.stats()`` keys, in its order → the registry names
#: :func:`collect_locking` files them under.  ``lock_wait_time`` is the
#: *server-side* queueing time (``lock.wait_s``), not the drivers'
#: ``fcntl`` wait (``lock.fcntl_wait_s``).
LOCKING_STAT_NAMES: Dict[str, str] = {
    "osts": "storage.osts",
    "stored_bytes": "storage.stored_bytes",
    "objects": "storage.objects",
    "files": "storage.files",
    "locks_granted": "lock.granted",
    "locks_queued": "lock.queued",
    "lock_wait_time": "lock.wait_s",
}


# ----------------------------------------------------------------------
# per-surface collectors
# ----------------------------------------------------------------------
#: ``metadata.cache.<counter>``: present only when a collected client
#: has a private cache
_PRIVATE_COUNTERS = ("lookups", "hits", "misses", "insertions", "evictions")

#: ``cache.chunk.<counter>``: the client's cache of its own uploads
_CHUNK_COUNTERS = ("lookups", "hits", "bytes_served", "evictions")

#: ``cache.shared.<counter>``: summed over the node cache services
SHARED_CACHE_COUNTERS = ("hits", "misses", "insertions", "evictions",
                         "unpublished_rejections")


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
    """Shared-tier totals across every node cache service; reports the
    ``cache.shared.attachments`` check."""
    services = list(deployment.node_caches.values())
    totals = {counter: sum(getattr(service.stats, counter)
                           for service in services)
              for counter in SHARED_CACHE_COUNTERS}
    for counter, total in totals.items():
        registry.add(f"cache.shared.{counter}", total)
    registry.add("cache.shared.lookups", totals["hits"] + totals["misses"])
    registry.set("cache.shared.services", len(services))
    registry.set("cache.shared.entries",
                 sum(len(service) for service in services))
    # attach() is idempotent, so a duplicate means corrupted bookkeeping
    registry.report("cache.shared.attachments", [
        f"shared cache on {service.node_name} holds duplicate attachments "
        f"{service.attached}"
        for service in services
        if len(set(service.attached)) != len(service.attached)])


def collect_deployment(registry: "MetricsRegistry",
                       deployment: "BlobSeerDeployment") -> None:
    """Server-side storage counters under their canonical (drift-free)
    names; includes the shared-cache totals."""
    stores = [service.store for service in deployment.data_providers.values()]
    shards = deployment.metadata_providers
    versions = deployment.version_manager.manager
    values = {
        "providers": len(stores),
        "chunks": sum(store.chunk_count() for store in stores),
        "stored_bytes": sum(store.stored_bytes() for store in stores),
        "metadata_nodes": deployment.metadata_store.node_count(),
        "metadata_read_rpcs": sum(shard.calls.get("get_nodes", 0)
                                  for shard in shards),
        "metadata_put_rpcs": sum(shard.calls.get("put_nodes", 0)
                                 for shard in shards),
        "snapshots_published": versions.snapshots_published,
        "tickets_assigned": versions.tickets_assigned,
        "load_imbalance":
            deployment.provider_manager.manager.load_imbalance(),
    }
    # point-in-time quantities are gauges; everything else accumulates
    gauges = {"metadata_nodes", "providers", "chunks", "stored_bytes",
              "load_imbalance"}
    for key, name in DEPLOYMENT_STAT_NAMES.items():
        if key in gauges:
            registry.set(name, values[key])
        else:
            registry.add(name, values[key])
    collect_shared_cache(registry, deployment)


def collect_locking(registry: "MetricsRegistry",
                    deployment: PosixFsDeployment,
                    drivers: Iterable["PosixLockingDriver"] = ()) -> None:
    """The Lustre-like baseline's storage and lock counters, plus, when the
    ranks' locking ``drivers`` are handed in (in rank order), their summed
    ``fcntl`` wait as ``lock.fcntl_wait_s``."""
    osts = deployment.osts
    managers = [ost.locks.manager for ost in osts]
    registry.set("storage.osts", len(osts))
    registry.set("storage.stored_bytes",
                 sum(ost.store.stored_bytes() for ost in osts))
    registry.set("storage.objects",
                 sum(ost.store.object_count() for ost in osts))
    registry.set("storage.files", deployment.mds.server.file_count())
    registry.add("lock.granted",
                 sum(manager.locks_granted for manager in managers))
    registry.add("lock.queued",
                 sum(manager.locks_queued for manager in managers))
    registry.set("lock.wait_s",
                 math.fsum(ost.locks.total_wait_time for ost in osts))
    drivers = list(drivers)
    if drivers:
        registry.set("lock.fcntl_wait_s",
                     math.fsum(driver.lock_wait_time for driver in drivers))


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
    disks = [node.disk for node in cluster.nodes.values() if node.disk]
    registry.set("cluster.nodes", len(cluster.nodes))
    registry.add("net.bytes", cluster.network.bytes_transferred)
    registry.add("net.messages", cluster.network.messages)
    registry.add("rpc.calls", cluster.rpc.total_calls)
    registry.add("disk.bytes", sum(disk.bytes_transferred for disk in disks))
    registry.add("disk.operations", sum(disk.operations for disk in disks))
    registry.set("disk.busy_s", math.fsum(disk.busy_time for disk in disks))
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
                deployment: "BlobSeerDeployment | PosixFsDeployment" = None,
                clients: Iterable["BlobClient"] = (),
                drivers: Iterable["VersioningDriver | PosixLockingDriver"] = (),
                comms: Iterable["Communicator"] = (),
                complete_clients: bool = False) -> "MetricsRegistry":
    """Collect every surface handed in; returns the registry for chaining.

    The ``deployment`` picks the backend.  A :class:`PosixFsDeployment`
    goes to :func:`collect_locking` with ``drivers`` as the ranks' locking
    drivers.  Otherwise ``deployment`` is a ``BlobSeerDeployment`` (or
    ``None``) and ``drivers`` are versioning drivers, whose clients stand
    in for ``clients`` when none are given.

    ``complete_clients=True`` attests that ``clients`` holds *every*
    client that attached to ``deployment`` — only then can the node
    pools' own counts be reconciled with the chains attached to them, since
    a missing client would have been served with no matching client-side
    counters.
    """
    clients = list(clients)
    drivers = list(drivers)
    if isinstance(deployment, PosixFsDeployment):
        collect_locking(registry, deployment, drivers)
    else:
        if drivers and not clients:
            clients = [driver.client for driver in drivers]
        if clients:
            collect_clients(registry, clients)
        if drivers:
            collect_collective(registry, drivers)
        if deployment is not None:
            collect_deployment(registry, deployment)
            if complete_clients:
                registry.report("metadata.tier_services", wire_problems(
                    [client.tiers for client in clients]))
    if comms:
        collect_comms(registry, comms)
    if cluster is not None:
        collect_cluster(registry, cluster)
    return registry
