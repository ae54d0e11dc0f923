"""The registry is the one read side of the stack's counters."""

import math

import pytest

from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.listio import IOVector
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.nolock import NoLockDriver
from repro.mpiio.adio.posix_listlock import PosixListLockDriver
from repro.mpiio.adio.posix_locking import PosixLockingDriver
from repro.obs.registry import MetricsRegistry
from repro.obs.views import (
    DEPLOYMENT_STAT_NAMES,
    LOCKING_STAT_NAMES,
    collect_all,
    collect_clients,
    collect_cluster,
    collect_deployment,
    collect_locking,
)
from repro.posixfs.deployment import PosixFsDeployment
from repro.vstore.client import VectoredClient


def run_workload(shared_cache=False):
    cluster = Cluster(config=ClusterConfig(shared_metadata_cache=shared_cache),
                      seed=2)
    deployment = BlobSeerDeployment(cluster, num_providers=2,
                                    num_metadata_providers=1,
                                    chunk_size=4096, node_prefix="vw")
    node = cluster.add_node("vw-app")
    clients = [VectoredClient(deployment, node, name=f"vw{index}")
               for index in range(2)]

    def scenario(client, base):
        yield from client.create_blob("/vw", 64 * 1024, exist_ok=True)
        receipt = yield from client.vwrite("/vw", [(base, b"y" * 4096)])
        yield from client.wait_published("/vw", receipt.version)
        pieces = yield from client.vread("/vw", [(base, 4096)])
        assert pieces[0] == b"y" * 4096

    processes = [cluster.sim.process(scenario(client, index * 8192))
                 for index, client in enumerate(clients)]
    for process in processes:
        cluster.sim.run(stop_event=process)
    return cluster, deployment, clients


def test_collect_all_holds_identities_and_totals():
    cluster, deployment, clients = run_workload(shared_cache=True)
    registry = collect_all(MetricsRegistry(), cluster=cluster,
                           deployment=deployment, clients=clients,
                           complete_clients=True)
    assert registry.check_identities() == []
    assert registry.get("client.bytes_written") == \
        sum(client.bytes_written for client in clients)
    assert registry.get("metadata.cache.lookups") == \
        sum(client.metadata_cache.stats.lookups for client in clients)
    # every writer read its own 4096 bytes back out of its chunk cache
    assert registry.get("cache.chunk.lookups") \
        == registry.get("cache.chunk.hits") == len(clients)
    assert registry.get("cache.chunk.bytes_served") == 4096 * len(clients)
    assert registry.get("cache.chunk.resident_bytes") == \
        sum(client.chunk_cache.resident_bytes for client in clients)
    assert registry.get("cache.chunk.extents_fetched") == 0
    assert registry.get("cache.chunk.evictions") == 0
    # the checks of the module docstring were all run
    assert set(registry._reported) == {"metadata.lookup_partition",
                                       "metadata.tier_services",
                                       "cache.chunk.lookup_partition",
                                       "cache.shared.attachments"}


def test_chunk_partition_catches_an_extent_nobody_served():
    """``lookups = hits + extents sent to providers``, per client."""
    cluster, _deployment, clients = run_workload(shared_cache=False)
    clients[0].chunk_cache.stats.lookups += 1
    registry = MetricsRegistry()
    collect_clients(registry, clients)
    problems = registry.check_identities()
    assert len(problems) == 1
    assert "cache.chunk.lookup_partition" in problems[0]
    assert clients[0].name in problems[0]


def test_service_check_catches_an_unaccounted_pool_lookup():
    """The cross-surface check: a node pool that served a lookup no
    collected client accounts for is flagged — but only when the caller
    attests the client set is complete."""
    cluster, deployment, clients = run_workload(shared_cache=True)
    clients[0].tiers.pool.get("/vw", 0, 4096, 1)
    partial = collect_all(MetricsRegistry(), deployment=deployment,
                          clients=clients)
    assert partial.check_identities() == []
    registry = collect_all(MetricsRegistry(), deployment=deployment,
                           clients=clients, complete_clients=True)
    problems = registry.check_identities()
    assert len(problems) == 1 and "metadata.tier_services" in problems[0]


def test_service_check_is_vacuous_without_shared_tier():
    cluster, deployment, clients = run_workload(shared_cache=False)
    registry = collect_all(MetricsRegistry(), cluster=cluster,
                           deployment=deployment, clients=clients,
                           complete_clients=True)
    assert registry.check_identities() == []
    assert registry._reported["metadata.tier_services"] == []


def test_server_and_client_metadata_counters_live_apart():
    """The server and the clients count metadata round-trips under one
    ``stats()`` key and one client field name; the registry keeps the two
    quantities apart."""
    cluster, deployment, clients = run_workload()
    registry = collect_all(MetricsRegistry(), cluster=cluster,
                           deployment=deployment, clients=clients)
    stats = deployment.stats()
    assert registry.get("metadata.server.read_rpcs") == \
        stats["metadata_read_rpcs"]
    assert registry.get("metadata.client.read_rpcs") == \
        sum(client.tiers.shard_stats.read_rpcs for client in clients)
    assert "metadata.server.read_rpcs" in registry
    assert "metadata.client.read_rpcs" in registry


@pytest.mark.parametrize("shared_cache", [True, False])
def test_collect_deployment_files_every_storage_side_stat(shared_cache):
    """``BlobSeerDeployment.stats()`` is a view of the collector: every key
    equals its registry name's value, with the shared tier on and off."""
    _cluster, deployment, clients = run_workload(shared_cache=shared_cache)
    registry = MetricsRegistry()
    collect_deployment(registry, deployment)
    stats = deployment.stats()
    scalars = {key for key, value in stats.items()
               if not isinstance(value, dict)}
    assert scalars == set(DEPLOYMENT_STAT_NAMES)
    for key, name in DEPLOYMENT_STAT_NAMES.items():
        assert registry.get(name) == stats[key], key
    shared = stats["shared_cache"]
    assert list(shared) == ["hits", "misses", "insertions", "evictions",
                            "unpublished_rejections", "services", "entries",
                            "attached_clients"]
    for key in list(shared)[:-1]:
        assert registry.get(f"cache.shared.{key}") == shared[key], key
    assert registry.get("cache.shared.lookups") \
        == shared["hits"] + shared["misses"]
    # read off the stores and services directly, not through the collector
    stores = [service.store for service in deployment.data_providers.values()]
    assert stats["stored_bytes"] == sum(store.stored_bytes()
                                        for store in stores) == 2 * 4096
    assert stats["snapshots_published"] == 2
    assert shared["services"] == (1 if shared_cache else 0)
    assert shared["attached_clients"] == (len(clients) if shared_cache else 0)
    if shared_cache:
        assert shared["insertions"] > 0 and shared["entries"] > 0
    else:
        assert shared["insertions"] == shared["entries"] == 0


def test_collect_cluster_sums_the_disks_busy_time():
    """``disk.busy_s`` is the exact (``math.fsum``) total of the disks'
    ``busy_time``, the denominator of the paper suite's overhead share."""
    cluster, _deployment, _clients = run_workload()
    registry = MetricsRegistry()
    collect_cluster(registry, cluster)
    disks = [node.disk for node in cluster.nodes.values() if node.disk]
    assert len(disks) == 2
    busy = registry.get("disk.busy_s")
    assert busy == math.fsum(disk.busy_time for disk in disks) > 0
    assert registry.get("disk.operations") \
        == sum(disk.operations for disk in disks)
    assert registry.get("net.bytes") == cluster.network.bytes_transferred
    assert registry.get("rpc.calls") == cluster.rpc.total_calls
    assert registry.get("cluster.nodes") == len(cluster.nodes)


def test_lookup_partition_holds_without_a_private_cache():
    """The partition is stated over whatever tiers the chain has: with no
    private cache every lookup falls straight through to the shards."""
    cluster = Cluster(seed=3)
    deployment = BlobSeerDeployment(cluster, num_providers=1,
                                    num_metadata_providers=1,
                                    chunk_size=4096, node_prefix="np")
    client = VectoredClient(deployment, cluster.add_node("np-app"),
                            name="np-app", enable_metadata_cache=False)

    def scenario():
        yield from client.create_blob("/np", 16 * 1024)
        yield from client.vwrite_and_wait("/np", [(0, b"n" * 8192)])
        yield from client.vread("/np", [(0, 8192)])

    cluster.sim.run(stop_event=cluster.sim.process(scenario()))
    registry = MetricsRegistry()
    collect_clients(registry, [client])
    assert registry.check_identities() == []
    assert "metadata.cache.lookups" not in registry
    assert registry.get("metadata.client.fetched_lookups") \
        == client.tiers.lookups > 0
    client.tiers.shard_stats.lookups += 1
    collect_clients(registry, [client])
    assert any("metadata.lookup_partition" in problem
               for problem in registry.check_identities())


def test_stats_snapshots_keep_their_keys_and_order():
    """The collectors and perfbench read these snapshots key by key: each is
    its dataclass's fields in declaration order, the coalescer's followed by
    its ``coalescing_factor`` gauge."""
    from repro.blobseer.writepath import CoalescerStats
    from repro.mpiio.adio.collective import (CollectiveReadStats,
                                             CollectiveStats)
    coalescer = CoalescerStats(batches=2, coalesced_writes=5).snapshot()
    assert list(coalescer) == [
        "staged_writes", "batches", "coalesced_writes", "coalesced_bytes",
        "coalescing_factor"]
    assert coalescer["coalescing_factor"] == 2.5
    assert list(CollectiveStats(stripes_committed=3).snapshot().items()) == [
        ("collectives", 0), ("bytes_sent", 0), ("bytes_received", 0),
        ("stripes_committed", 3), ("attributed_writes", 0)]
    assert list(CollectiveReadStats().snapshot()) == [
        "collectives", "bytes_sent", "bytes_received", "stripes_resolved",
        "version_rpcs", "version_rpcs_elided", "hole_bytes_elided"]


def run_locking_job(driver_class, ranks=3):
    """Every rank writes one atomic two-region vector overlapping its
    neighbours' through its locking driver; returns the deployment and the
    drivers in rank order."""
    cluster = Cluster(config=ClusterConfig(), seed=2)
    deployment = PosixFsDeployment(cluster, num_osts=2,
                                   default_stripe_size=4096, node_prefix="lw")
    drivers = [None] * ranks

    def rank_main(ctx):
        driver = drivers[ctx.rank] = driver_class(
            deployment, ctx.node, rank_name=f"lw{ctx.rank}")
        yield from driver.open("/lw", 0, create=True, rank=ctx.rank,
                               comm=ctx.comm)
        fill = bytes([ctx.rank + 1]) * 4096
        vector = IOVector.for_write([(ctx.rank * 2048, fill),
                                     (16384 + ctx.rank * 2048, fill)])
        yield from driver.write_vector("/lw", vector, atomic=True,
                                       rank=ctx.rank, comm=ctx.comm)

    run_mpi_job(cluster, ranks, rank_main, node_prefix="lw-rank")
    return deployment, drivers


def test_collect_locking_files_every_storage_side_stat():
    """``PosixFsDeployment.stats()`` is a view of the collector: its keys,
    in their order, each equal to its registry name's value."""
    deployment, _drivers = run_locking_job(PosixLockingDriver)
    registry = MetricsRegistry()
    collect_locking(registry, deployment)
    stats = deployment.stats()
    assert list(stats) == list(LOCKING_STAT_NAMES) == [
        "osts", "stored_bytes", "objects", "files", "locks_granted",
        "locks_queued", "lock_wait_time"]
    for key, name in LOCKING_STAT_NAMES.items():
        assert registry.get(name) == stats[key], key
    assert "lock.fcntl_wait_s" not in registry
    # read off the OSTs, lock services and MDS directly
    osts = deployment.osts
    assert stats["osts"] == 2 and stats["files"] == 1
    assert stats["stored_bytes"] == sum(ost.store.stored_bytes()
                                        for ost in osts) == 16384 + 8192
    assert stats["locks_granted"] == sum(ost.locks.manager.locks_granted
                                         for ost in osts) > 0
    assert stats["locks_queued"] > 0
    assert stats["lock_wait_time"] == math.fsum(
        ost.locks.total_wait_time for ost in osts) > 0


@pytest.mark.parametrize("driver_class", [PosixLockingDriver,
                                          PosixListLockDriver, NoLockDriver])
def test_fcntl_wait_is_the_drivers_exact_sum(driver_class):
    """``lock.fcntl_wait_s`` is ``math.fsum`` of the drivers' own waits.  It
    is not ``lock.wait_s``: the driver without MPI-I/O-layer locks waits
    on no ``fcntl`` lock, while its POSIX accesses still queue on the
    OSTs' ``data`` locks."""
    deployment, drivers = run_locking_job(driver_class)
    registry = collect_all(MetricsRegistry(), deployment=deployment,
                           drivers=drivers)
    fcntl_wait = registry.get("lock.fcntl_wait_s")
    assert fcntl_wait == math.fsum(driver.lock_wait_time
                                   for driver in drivers)
    assert registry.get("lock.wait_s") > 0
    if driver_class is NoLockDriver:
        assert fcntl_wait == 0.0
    else:
        assert fcntl_wait > 0
    # the drivers went to the locking collector only
    assert not any(name.startswith(("client.", "collective."))
                   for name in registry.snapshot())
