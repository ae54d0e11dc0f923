"""Registry-backed views over the stack's scattered stats surfaces."""

from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.views import (
    _DEPLOYMENT_STAT_NAMES,
    collect_all,
    collect_clients,
    collect_deployment,
)
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
                                       "cache.chunk.lookup_partition"}


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
    """The naming-drift fix: the legacy dicts used one key for two
    different quantities; the registry keeps them distinguishable."""
    cluster, deployment, clients = run_workload()
    registry = collect_all(MetricsRegistry(), cluster=cluster,
                           deployment=deployment, clients=clients)
    stats = deployment.stats()
    assert registry.get("metadata.server.read_rpcs") == \
        stats["metadata_read_rpcs"]
    assert registry.get("metadata.client.read_rpcs") == \
        sum(client.metadata_read_rpcs for client in clients)
    assert "metadata.server.read_rpcs" in registry
    assert "metadata.client.read_rpcs" in registry


def test_collect_deployment_files_every_storage_side_stat():
    _cluster, deployment, _clients = run_workload()
    registry = MetricsRegistry()
    collect_deployment(registry, deployment)
    stats = deployment.stats()
    scalars = {key for key, value in stats.items()
               if not isinstance(value, dict)}
    assert scalars == set(_DEPLOYMENT_STAT_NAMES)
    for key, name in _DEPLOYMENT_STAT_NAMES.items():
        assert registry.get(name) == stats[key], key
    assert registry.get("cache.shared.lookups") \
        == stats["shared_cache"]["hits"] + stats["shared_cache"]["misses"]


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
