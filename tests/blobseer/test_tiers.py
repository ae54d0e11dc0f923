"""The metadata tier chain: one fold, one identity, any configured list.

* every list shape the stack configures today resolves the same bytes and
  satisfies the one N-tier lookup partition
  (:func:`~repro.blobseer.metadata.tiers.partition_problems`) plus the
  shared services' conservation
  (:func:`~repro.blobseer.metadata.tiers.wire_problems`);
* the payoff: a tier the stack has never heard of, defined here, is
  consulted, admitted to and covered by the same identity once it sits in
  the list — and the chain is indifferent to what a key names, so caching
  immutable *chunk* ranges is a list too.
"""

import pytest

from repro.blobseer.deployment import BlobSeerDeployment
from repro.blobseer.metadata.cache import CacheStats
from repro.blobseer.metadata.segment_tree import EXTENT_DESCRIPTION_BYTES
from repro.blobseer.metadata.tiers import (
    MetadataTierChain,
    Tier,
    build_chain,
    partition_problems,
    wire_problems,
)
from repro.cluster import Cluster, ClusterConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.views import collect_all
from repro.vstore.client import VectoredClient

BLOB = "tier-blob"
CHUNK = 4096
FILE_SIZE = 64 * CHUNK
PAYLOAD = bytes(range(256)) * (16 * CHUNK // 256)


class MemoryTier(Tier):
    """A resident tier the stack does not ship: a plain dict."""

    name = "memory"
    resident = True

    def __init__(self):
        self.stats = CacheStats()
        self.entries = {}

    def get(self, blob_id, offset, size, hint):
        self.stats.lookups += 1
        key = (blob_id, offset, size, hint)
        if key not in self.entries:
            return False, None
        self.stats.hits += 1
        return True, self.entries[key]

    def admit(self, blob_id, entries):
        for request, value in entries:
            self.entries[(blob_id, *request)] = value


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


SHAPES = {
    "shards-only": (dict(), dict(enable_metadata_cache=False),
                    ["shards"]),
    "private": (dict(), dict(), ["private", "shards"]),
    "node-only": (dict(shared_metadata_cache=True),
                  dict(enable_metadata_cache=False), ["node", "shards"]),
    "private+node": (dict(shared_metadata_cache=True), dict(),
                     ["private", "node", "shards"]),
    # the field is accepted and ignored: no peer tier joins the list
    "cooperative-inert": (dict(shared_metadata_cache=True,
                               cooperative_cache=True), dict(),
                          ["private", "node", "shards"]),
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
        assert [tier.name for tier in client.tiers.order] == expected
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
    client.tiers.find("node").stats.hits += 1
    problems = partition_problems([client.tiers])
    assert problems and all(problem.startswith("c:") for problem in problems)
    assert any("'shards'" in problem for problem in problems)


def test_prefetch_is_gone_not_ignored():
    """The shards answer what a walk asks for and what it will ask next for
    the runs it named, nothing speculative: a client or a chain told to
    prefetch fails loudly instead of reading without it."""
    cluster, deployment, _seeder = deploy()
    node = cluster.add_node("cn0")
    with pytest.raises(TypeError):
        VectoredClient(deployment, node, name="c", metadata_prefetch=True)
    client = VectoredClient(deployment, node, name="c")
    with pytest.raises(TypeError):
        build_chain(client, prefetch=True)


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
    assert client.metadata_read_rpcs == len(calls) <= 2
    assert client.tiers.count("private", "hits") == version - 1
    assert partition_problems([client.tiers]) == []


def test_links_pass_the_node_pool_gate_and_spare_a_co_tenant_the_shards():
    cluster, deployment, version = chained_leaf(shared_metadata_cache=True)
    node = cluster.add_node("cn0")
    first = VectoredClient(deployment, node, name="first")
    second = VectoredClient(deployment, node, name="second")
    assert run(cluster, first.vread(BLOB, [(0, CHUNK)], version)) == [
        expected_leaf(version)]
    assert first.metadata_read_rpcs > 0
    # the co-tenant finds the leaf and its chain in the pool
    assert run(cluster, second.vread(BLOB, [(0, CHUNK)], version)) == [
        expected_leaf(version)]
    assert second.metadata_read_rpcs == 0
    assert second.tiers.count("node", "hits") > version - 1

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


def test_an_unknown_tier_dropped_into_the_list_just_works():
    """The payoff: nothing outside this file knows ``MemoryTier``, yet in
    the list it is consulted, offered every resolved lookup, answers the
    repeat read, and the partition identity covers it."""
    cluster, deployment, _seeder = deploy()
    client = VectoredClient(deployment, cluster.add_node("cn0"), name="c",
                            enable_metadata_cache=False)
    memory = MemoryTier()
    client.tiers.order.insert(0, memory)
    assert [tier.name for tier in client.tiers.order] == ["memory", "shards"]

    cold = run(cluster, client.vread(BLOB, [(0, 8 * CHUNK)], 1))
    assert memory.stats.lookups > 0 and memory.stats.hits == 0
    assert len(memory.entries) == memory.stats.lookups
    rpcs = client.metadata_read_rpcs
    warm = run(cluster, client.vread(BLOB, [(0, 8 * CHUNK)], 1))
    assert warm == cold == [PAYLOAD[:8 * CHUNK]]
    assert client.metadata_read_rpcs == rpcs
    assert memory.stats.hits == memory.stats.lookups // 2
    assert partition_problems([client.tiers]) == []
    memory.stats.lookups += 1
    assert partition_problems([client.tiers]) != []


def test_chunk_ranges_are_a_list_too():
    """Not built, only shown: a chain does not care what its keys name.
    Immutable chunk ranges ``(chunk, offset, length)`` resolved through
    ``[memory, data providers]`` are cached by the same fold and counted
    by the same identity."""
    cluster, deployment, seeder = deploy()
    node = cluster.add_node("cn0")

    class ChunkSource(Tier):
        name = "providers"
        terminal = True

        def __init__(self):
            self.stats = CacheStats()

        def lookup(self, provider_id, requests, wanted=None):
            pieces = yield from cluster.rpc.call(
                node, deployment.data_provider(provider_id),
                "get_chunk_ranges", 64,
                sum(length for _chunk, _offset, length in requests),
                list(requests))
            self.stats.lookups += len(requests)
            self.stats.hits += len(requests)
            return dict(zip(requests, pieces))

    # which chunk ranges hold the first leaves: resolved once, by the seeder
    blob = run(cluster, seeder.open_blob(BLOB))
    plan = run(cluster, seeder._resolve_metadata(
        blob, 1, seeder._as_read_vector([(0, 4 * CHUNK)]).region_list()))
    wanted = {}
    for extent in plan.extents:
        if not extent.is_zero:
            wanted.setdefault(extent.provider_id, []).append(
                (extent.offset,
                 (extent.chunk, extent.chunk_offset, extent.length)))
    assert wanted

    source = ChunkSource()
    chain = MetadataTierChain([MemoryTier(), source], name="chunks")
    for _round in range(2):
        for provider_id, ranges in sorted(wanted.items()):
            resolved = run(cluster, chain.resolve(
                provider_id, [key for _offset, key in ranges]))
            for offset, key in ranges:
                assert resolved[key] == PAYLOAD[offset:offset + key[2]]
    assert source.stats.lookups == chain.fetched_lookups == chain.lookups // 2
    assert chain.count("memory", "hits") == chain.lookups // 2
    assert partition_problems([chain]) == []
