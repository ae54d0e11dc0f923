"""The metadata tier chain: private cache, node pool, shards.

* every cache combination the stack configures resolves the same bytes and
  satisfies the lookup partition
  (:func:`~repro.blobseer.metadata.tiers.partition_problems`) plus the
  node pools' conservation
  (:func:`~repro.blobseer.metadata.tiers.wire_problems`);
* a leaf lookup ships its wanted runs and gets its base chain back in the
  same round trip, and the links pass the node pool's gate;
* a pool hit is promoted into the private cache.
"""

import pytest

from repro.blobseer.deployment import BlobSeerDeployment
from repro.blobseer.metadata.tiers import partition_problems, wire_problems
from repro.cluster import Cluster, ClusterConfig
from repro.core.listio import EXTENT_DESCRIPTION_BYTES
from repro.obs.registry import MetricsRegistry
from repro.obs.views import collect_all
from repro.vstore.client import VectoredClient

BLOB = "tier-blob"
CHUNK = 4096
FILE_SIZE = 64 * CHUNK
PAYLOAD = bytes(range(256)) * (16 * CHUNK // 256)


def run(cluster, generator):
    process = cluster.sim.process(generator)
    cluster.sim.run(stop_event=process)
    return process.value


def deploy(**config):
    cluster = Cluster(config=ClusterConfig(**config))
    deployment = BlobSeerDeployment(cluster, num_providers=2,
                                    num_metadata_providers=2,
                                    chunk_size=CHUNK)
    seeder = VectoredClient(deployment, cluster.add_node("seed"), name="seed",
                            shared_metadata_cache=False)

    def seed():
        yield from seeder.create_blob(BLOB, FILE_SIZE)
        yield from seeder.vwrite_and_wait(BLOB, [(0, PAYLOAD)])

    run(cluster, seed())
    return cluster, deployment, seeder


#: cluster config, client options, and which of (private cache, node
#: pool) the client's chain keeps
SHAPES = {
    "shards-only": (dict(), dict(enable_metadata_cache=False),
                    (False, False)),
    "private": (dict(), dict(), (True, False)),
    "node-only": (dict(shared_metadata_cache=True),
                  dict(enable_metadata_cache=False), (False, True)),
    "private+node": (dict(shared_metadata_cache=True), dict(),
                     (True, True)),
    # the field is accepted and ignored: no peer tier joins the chain
    "cooperative-inert": (dict(shared_metadata_cache=True,
                               cooperative_cache=True), dict(),
                          (True, True)),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_configured_shape_reads_right_and_partitions(shape):
    config, client_options, expected = SHAPES[shape]
    cluster, deployment, seeder = deploy(**config)
    nodes = [cluster.add_node(f"cn{index}") for index in range(3)]
    # two tenants per node; all start at once, so co-tenants miss together
    clients = [VectoredClient(deployment, nodes[index % 3],
                              name=f"c{index}", **client_options)
               for index in range(6)]
    for client in clients:
        chain = client.tiers
        assert (chain.private is not None, chain.pool is not None) \
            == expected
    reads = {}

    def reader(index):
        for round_index in range(2):
            offset = ((index + round_index) % 3) * 4 * CHUNK
            pieces = yield from clients[index].vread(
                BLOB, [(offset, 4 * CHUNK)], 1)
            reads[(index, round_index)] = (offset, pieces[0])

    processes = [cluster.sim.process(reader(index)) for index in range(6)]

    def join():
        yield cluster.sim.all_of(processes)

    run(cluster, join())
    assert len(reads) == 12
    for offset, data in reads.values():
        assert data == PAYLOAD[offset:offset + 4 * CHUNK]

    chains = [client.tiers for client in clients + [seeder]]
    assert partition_problems(chains) == []
    assert wire_problems(chains) == []
    assert sum(chain.lookups for chain in chains) > 0
    registry = collect_all(MetricsRegistry(), cluster=cluster,
                           deployment=deployment, clients=clients + [seeder],
                           complete_clients=True)
    assert registry.check_identities() == []


@pytest.mark.parametrize("shared,num_nodes", [(True, 2), (True, 3),
                                               (False, 3)])
def test_the_cooperative_flag_changes_nothing(shared, num_nodes):
    """``cooperative_cache`` is accepted for old configurations and does
    nothing: any placement reads the same bytes at the same simulated
    times, with the same events and the same counters, flag on or off."""
    def job(cooperative):
        cluster, deployment, seeder = deploy(
            shared_metadata_cache=shared, cooperative_cache=cooperative)
        nodes = [cluster.add_node(f"cn{index}") for index in range(num_nodes)]
        clients = [VectoredClient(deployment, nodes[index % num_nodes],
                                  name=f"c{index}") for index in range(6)]
        reads = {}

        def reader(index):
            for round_index in range(2):
                offset = ((index + round_index) % 3) * 4 * CHUNK
                pieces = yield from clients[index].vread(
                    BLOB, [(offset, 4 * CHUNK)], 1)
                reads[(index, round_index)] = (cluster.sim.now, pieces[0])

        processes = [cluster.sim.process(reader(index)) for index in range(6)]

        def join():
            yield cluster.sim.all_of(processes)

        run(cluster, join())
        registry = collect_all(MetricsRegistry(), cluster=cluster,
                               deployment=deployment,
                               clients=clients + [seeder],
                               complete_clients=True)
        return (reads, cluster.sim.processed_events,
                sorted(registry.snapshot().items()))

    assert job(True) == job(False)


def test_a_broken_count_is_named_by_tier():
    cluster, deployment, _seeder = deploy(shared_metadata_cache=True)
    client = VectoredClient(deployment, cluster.add_node("cn0"), name="c")
    run(cluster, client.vread(BLOB, [(0, 4 * CHUNK)], 1))
    assert partition_problems([client.tiers]) == []
    client.tiers.pool_stats.hits += 1
    problems = partition_problems([client.tiers])
    assert problems and all(problem.startswith("c:") for problem in problems)
    assert any("'shards'" in problem for problem in problems)


def test_prefetch_is_gone_not_ignored():
    """The shards answer what a walk asks for and what it will ask next for
    the runs it named, nothing speculative: a client told to prefetch fails
    loudly instead of reading without it."""
    cluster, deployment, _seeder = deploy()
    node = cluster.add_node("cn0")
    with pytest.raises(TypeError):
        VectoredClient(deployment, node, name="c", metadata_prefetch=True)


def test_a_shard_answers_a_list_aligned_with_its_requests():
    cluster, deployment, _seeder = deploy()
    # the root and two written leaves; version 0 and the tail are unwritten
    requests = [(0, FILE_SIZE, 1), (0, CHUNK, 1), (15 * CHUNK, CHUNK, 1),
                (0, CHUNK, 0), (FILE_SIZE - CHUNK, CHUNK, 1)]
    found = 0
    for provider in deployment.metadata_providers:
        handler = provider.get_nodes(BLOB, requests)
        with pytest.raises(StopIteration) as stop:
            next(handler)
        nodes, links = stop.value.value
        assert nodes == [provider.store.get_at_or_before(BLOB, *request)
                         for request in requests]
        assert links == []  # no runs wanted, no base chain shipped
        found += sum(node is not None for node in nodes)
    assert found == 3


def chained_leaf(**config):
    """A deployment whose first leaf carries a base-version chain: five
    partial writes after the seed, each leaving the rest of the leaf to
    the version before it.  Returns ``(cluster, deployment, version)``."""
    cluster, deployment, seeder = deploy(**config)

    def rewrite():
        for index in range(5):
            yield from seeder.vwrite_and_wait(
                BLOB, [(index * 512, bytes([index + 1]) * 256)])

    run(cluster, rewrite())
    return cluster, deployment, 6


def expected_leaf(version):
    data = bytearray(PAYLOAD[:CHUNK])
    for index in range(version - 1):
        data[index * 512:index * 512 + 256] = bytes([index + 1]) * 256
    return bytes(data)


def spy_on_get_nodes(client):
    """Record ``(request bytes, response bytes, args, answer)`` of every
    ``get_nodes`` RPC ``client`` issues."""
    calls = []
    rpc = client._rpc

    def recording(service, method, request_bytes, response_bytes, *args,
                  **kwargs):
        answer = yield from rpc(service, method, request_bytes,
                                response_bytes, *args, **kwargs)
        if method == "get_nodes":
            calls.append((request_bytes, response_bytes(answer), args,
                          answer))
        return answer

    client._rpc = recording
    return calls


def test_a_leaf_lookup_ships_its_runs_and_gets_its_base_chain_back():
    """The wire cost of a chained leaf read: ``metadata_request_size`` per
    lookup plus ``EXTENT_DESCRIPTION_BYTES`` per wanted run up,
    ``metadata_node_size`` per lookup *and* per link down — and the read
    costs one round trip: every chain level after the leaf's is answered by
    the private tier."""
    cluster, deployment, version = chained_leaf()
    config = cluster.config
    client = VectoredClient(deployment, cluster.add_node("cn0"), name="c")
    calls = spy_on_get_nodes(client)
    pieces = run(cluster, client.vread(BLOB, [(0, 100), (300, CHUNK)],
                                       version))
    wanted_bytes = expected_leaf(version) + PAYLOAD[CHUNK:2 * CHUNK]
    assert pieces == [wanted_bytes[:100], wanted_bytes[300:300 + CHUNK]]

    links = runs = 0
    for request_bytes, response_bytes, args, answer in calls:
        _blob, requests, wanted = args
        nodes, chain = answer
        wanted_runs = sum(len(leaf) for leaf in wanted or () if leaf)
        assert request_bytes == (config.metadata_request_size * len(requests)
                                 + EXTENT_DESCRIPTION_BYTES * wanted_runs)
        assert response_bytes == config.metadata_node_size * (
            len(requests) + len(chain))
        links += len(chain)
        runs += wanted_runs
    assert config.metadata_request_size == 32
    assert EXTENT_DESCRIPTION_BYTES == 16
    assert config.metadata_node_size == 512
    # leaf 0 wants two runs, leaf 1 (seeded whole, no chain) one; leaf 0's
    # chain runs from version 5 down to the seed's version 1
    assert runs == 3 and links == version - 1
    # the two leaves are looked up at the read version in one round (one
    # RPC per shard holding one), and the five chain levels after it are
    # private-tier hits
    assert client.tiers.shard_stats.read_rpcs == len(calls) <= 2
    assert client.tiers.private.stats.hits == version - 1
    assert partition_problems([client.tiers]) == []


def test_links_pass_the_node_pool_gate_and_spare_a_co_tenant_the_shards():
    cluster, deployment, version = chained_leaf(shared_metadata_cache=True)
    node = cluster.add_node("cn0")
    first = VectoredClient(deployment, node, name="first")
    second = VectoredClient(deployment, node, name="second")
    assert run(cluster, first.vread(BLOB, [(0, CHUNK)], version)) == [
        expected_leaf(version)]
    assert first.tiers.shard_stats.read_rpcs > 0
    # the co-tenant finds the leaf and its chain in the pool
    assert run(cluster, second.vread(BLOB, [(0, CHUNK)], version)) == [
        expected_leaf(version)]
    assert second.tiers.shard_stats.read_rpcs == 0
    assert second.tiers.pool_stats.hits > version - 1

    # a pool that has seen only version 3 published: of a version-6 leaf
    # and its chain (hints 5..1), only the links at or below 3 get in
    other = VectoredClient(deployment, cluster.add_node("cn1"), name="other",
                           enable_metadata_cache=False)
    other.note_published(BLOB, 3)
    leaf = (0, CHUNK, version)
    resolved = run(cluster, other.tiers.resolve(BLOB, [leaf],
                                                {leaf: ((0, CHUNK),)}))
    hints = sorted(hint for _offset, _size, hint in resolved)
    assert hints == [1, 2, 3, 4, 5, version]
    pool = deployment.node_cache(other.node)
    for hint in hints:
        assert pool.get(BLOB, 0, CHUNK, hint)[0] == (hint <= 3)
    assert pool.stats.unpublished_rejections == 3


def test_a_pool_hit_is_promoted_into_the_private_cache():
    """A co-tenant's first read is answered by the node pool, and each hit
    is copied into its private cache: its repeat read never asks the pool
    again, and the partition still holds."""
    cluster, deployment, _seeder = deploy(shared_metadata_cache=True)
    node = cluster.add_node("cn0")
    first = VectoredClient(deployment, node, name="first")
    second = VectoredClient(deployment, node, name="second")
    extent = [(0, 8 * CHUNK)]
    assert run(cluster, first.vread(BLOB, extent, 1)) == [PAYLOAD[:8 * CHUNK]]

    assert run(cluster, second.vread(BLOB, extent, 1)) == [
        PAYLOAD[:8 * CHUNK]]
    chain = second.tiers
    assert second.tiers.shard_stats.read_rpcs == 0
    assert chain.private.stats.hits == 0
    assert chain.pool_stats.hits == chain.lookups > 0
    pool_lookups = chain.pool_stats.lookups

    assert run(cluster, second.vread(BLOB, extent, 1)) == [
        PAYLOAD[:8 * CHUNK]]
    assert second.tiers.shard_stats.read_rpcs == 0
    assert chain.pool_stats.lookups == pool_lookups
    assert chain.private.stats.hits == chain.lookups - pool_lookups
    assert partition_problems([first.tiers, chain]) == []
    assert wire_problems([first.tiers, chain]) == []
