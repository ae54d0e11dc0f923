"""The writer's chunk cache: the map, its fill and lookup sites, abort hygiene.

An uploaded chunk is immutable, so the payload a client handed a provider
stays that chunk's content: the client keeps the reference and serves its
own later reads from it.  Transparency under random interleavings is in
``test_chunk_cache_property.py``; the collective's discard path is asserted
where the faults are injected, ``tests/mpiio/test_collective_fault_injection.py``.
"""

import pytest

from repro.blobseer.chunk import ChunkKey
from repro.blobseer.chunk_cache import CHUNK_CACHE_BYTES, ChunkCache
from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.errors import ProviderUnavailable
from repro.obs.registry import MetricsRegistry
from repro.obs.views import collect_cluster
from repro.vstore.client import VectoredClient
from repro.workloads.overlap_stress import OverlapStressWorkload

BLOB = "cc"
CHUNK = 256


def key(sequence):
    return ChunkKey("w", sequence)


def transport(cluster):
    """The cluster's network, RPC and disk totals, by registry name."""
    registry = MetricsRegistry()
    collect_cluster(registry, cluster)
    return registry.snapshot()


def run(cluster, generator):
    return cluster.sim.run(stop_event=cluster.sim.process(generator))


def make_clients(count=1, providers=3, chunk_size=CHUNK, blob_size=4096):
    cluster = Cluster(config=ClusterConfig(), seed=1)
    deployment = BlobSeerDeployment(cluster, num_providers=providers,
                                    num_metadata_providers=2,
                                    chunk_size=chunk_size)
    clients = [VectoredClient(deployment, cluster.add_node(f"c{index}"),
                              name=f"c{index}") for index in range(count)]
    run(cluster, clients[0].create_blob(BLOB, blob_size))
    return cluster, deployment, clients


# ----------------------------------------------------------------------
# the map
# ----------------------------------------------------------------------
class TestChunkCache:
    def test_default_bound_is_romios_collective_buffer(self):
        assert ChunkCache().capacity_bytes == CHUNK_CACHE_BYTES == 16 << 20
        with pytest.raises(ValueError):
            ChunkCache(0)

    def test_serves_ranges_of_held_chunks_and_counts_them(self):
        cache = ChunkCache()
        payload = bytes(range(100))
        cache.put(key(0), payload)
        assert cache.read(key(0), 10, 5) == payload[10:15]
        # the whole chunk is the held object itself: a reference, no copy
        assert cache.read(key(0), 0, 100) is payload
        assert cache.read(key(1), 0, 4) is None
        stats = cache.stats
        assert (stats.lookups, stats.hits, stats.misses) == (3, 2, 1)
        assert stats.bytes_served == 105
        assert cache.resident_bytes == 100 and len(cache) == 1

    def test_bound_is_in_bytes_and_eviction_is_least_recently_used(self):
        cache = ChunkCache(capacity_bytes=100)
        for sequence in range(3):
            cache.put(key(sequence), b"x" * 30)
        assert cache.read(key(0), 0, 1) == b"x"   # 0 is now the freshest
        cache.put(key(3), b"y" * 30)              # 120 B: 1 goes, not 0
        assert cache.read(key(1), 0, 1) is None
        assert cache.read(key(0), 0, 1) == b"x"
        assert cache.resident_bytes == 90
        cache.put(key(4), b"z" * 70)              # 160 B: 2 and 3 go
        assert [cache.read(key(n), 0, 1) for n in (2, 3)] == [None, None]
        assert cache.resident_bytes == 100
        assert cache.stats.evictions == 3

    def test_a_chunk_larger_than_the_bound_is_not_kept(self):
        cache = ChunkCache(capacity_bytes=10)
        cache.put(key(0), b"a" * 4)
        cache.put(key(1), b"b" * 11)
        assert len(cache) == 0 and cache.resident_bytes == 0
        assert cache.stats.evictions == 2

    def test_discard_is_not_an_eviction(self):
        cache = ChunkCache()
        cache.put(key(0), b"a" * 8)
        cache.discard(key(0))
        cache.discard(key(7))
        assert cache.resident_bytes == 0 and cache.stats.evictions == 0


# ----------------------------------------------------------------------
# fill (stage) and lookup (fetch_extents)
# ----------------------------------------------------------------------
class TestWriterReadsItsOwnChunks:
    def test_the_cache_holds_the_object_the_provider_stores(self):
        cluster, deployment, (client,) = make_clients()
        run(cluster, client.vwrite(BLOB, [(0, b"p" * 300), (900, b"q" * 50)]))
        cache = client.chunk_cache
        assert cache.resident_bytes == 350 and len(cache) == 3
        held = 0
        for provider in deployment.data_providers.values():
            for chunk, stored in provider.store._chunks.items():
                assert cache.read(chunk, 0, len(stored)) is stored
                held += 1
        assert held == 3

    def test_a_read_of_own_bytes_issues_no_data_rpc(self):
        cluster, deployment, (client, other) = make_clients(2)
        run(cluster, client.vwrite_and_wait(
            BLOB, [(0, b"p" * 300), (900, b"q" * 50)]))
        before = transport(cluster)
        pieces = run(cluster, client.vread(BLOB, [(100, 150), (910, 20),
                                                  (2000, 8)]))
        assert pieces == [b"p" * 150, b"q" * 20, b"\x00" * 8]
        after = transport(cluster)
        assert after["disk.operations"] == before["disk.operations"]
        assert all("get_chunk_ranges" not in provider.calls
                   for provider in deployment.data_providers.values())
        assert client.extents_fetched == 0
        assert client.chunk_cache.stats.hits == 2
        assert client.chunk_cache.stats.bytes_served == 170
        # anyone else goes to the providers for the same bytes
        assert run(cluster, other.vread(BLOB, [(100, 150), (910, 20)])) \
            == pieces[:2]
        assert other.extents_fetched == other.chunk_cache.stats.lookups == 2
        assert other.chunk_cache.stats.hits == 0
        assert other.chunk_cache.resident_bytes == 0  # no fill on read

    def test_evicted_chunks_come_from_the_providers_again(self):
        cluster, _deployment, (client,) = make_clients()
        client.chunk_cache = ChunkCache(capacity_bytes=2 * CHUNK)
        run(cluster, client.vwrite_and_wait(BLOB, [(0, b"a" * (4 * CHUNK))]))
        assert client.chunk_cache.stats.evictions == 2
        assert run(cluster, client.vread(BLOB, [(0, 4 * CHUNK)])) \
            == [b"a" * (4 * CHUNK)]
        assert client.extents_fetched == 2
        assert client.chunk_cache.stats.hits == 2

    def test_old_versions_are_served_from_the_chunks_that_made_them(self):
        cluster, _deployment, (client,) = make_clients()
        first = run(cluster, client.vwrite_and_wait(BLOB, [(0, b"1" * 600)]))
        run(cluster, client.vwrite_and_wait(BLOB, [(200, b"2" * 100)]))
        assert run(cluster, client.vread(BLOB, [(0, 600)])) \
            == [b"1" * 200 + b"2" * 100 + b"1" * 300]
        assert run(cluster, client.vread(BLOB, [(0, 600)],
                                         version=first.version)) \
            == [b"1" * 600]
        assert client.extents_fetched == 0


def test_restart_read_moves_only_the_bytes_the_reader_did_not_write():
    """``overlap_write`` in small: four ranks write overlapping regions one
    after the other, then each reads its own view back.  Rank ``k + 1``
    overwrote the upper half of each of rank ``k``'s regions, so that half —
    and nothing else — is what rank ``k`` asks the providers for.  The same
    job with caches too small to hold a chunk is the reference."""
    chunk = 4096
    workload = OverlapStressWorkload(num_clients=4, regions_per_client=2,
                                     region_size=2 * chunk,
                                     overlap_fraction=0.5)

    def job(capacity_bytes):
        cluster, deployment, clients = make_clients(
            4, providers=4, chunk_size=chunk, blob_size=workload.file_size)
        for client in clients:
            client.chunk_cache = ChunkCache(capacity_bytes)

        def write_phase():
            for rank, client in enumerate(clients):
                yield from client.vwrite_and_wait(
                    BLOB, [(region.offset, bytes([65 + rank]) * region.size)
                           for region in workload.client_regions(rank)])

        def restart_read(rank):
            pieces = yield from clients[rank].vread(
                BLOB, [(region.offset, region.size)
                       for region in workload.client_regions(rank)])
            return pieces

        run(cluster, write_phase())
        before = transport(cluster)
        reads = [run(cluster, restart_read(rank)) for rank in range(4)]
        moved = {name: value - before[name]
                 for name, value in transport(cluster).items()}
        moved["get_chunk_ranges"] = sum(
            provider.calls.get("get_chunk_ranges", 0)
            for provider in deployment.data_providers.values())
        return reads, moved, clients

    reads, moved, clients = job(CHUNK_CACHE_BYTES)
    cold_reads, cold, _ = job(capacity_bytes=1)
    for rank in range(4):
        upper = bytes([65 + min(rank + 1, 3)]) * chunk
        assert reads[rank] == cold_reads[rank] \
            == [bytes([65 + rank]) * chunk + upper] * 2

    # ranks 0-2: the upper half of each of two regions is somebody else's
    foreign = 3 * 2 * chunk
    own = 4 * 2 * 2 * chunk - foreign
    assert moved["disk.bytes"] == foreign
    assert cold["disk.bytes"] == foreign + own
    assert sum(client.extents_fetched for client in clients) == 3 * 2
    assert [client.chunk_cache.stats.bytes_served for client in clients] \
        == [2 * chunk] * 3 + [4 * chunk]
    # one request per (reader, provider it needs): the last rank needs none,
    # the others only the providers of their neighbour's chunks
    spared = cold["get_chunk_ranges"] - moved["get_chunk_ranges"]
    assert spared > 0
    assert 3 <= moved["get_chunk_ranges"] <= 3 * 2
    assert cold["rpc.calls"] - moved["rpc.calls"] == spared
    assert cold["disk.operations"] - moved["disk.operations"] == spared
    # and the network carried exactly the own bytes, and the spared
    # requests, less
    assert cold["net.bytes"] - moved["net.bytes"] \
        == own + spared * ClusterConfig().control_message_size


# ----------------------------------------------------------------------
# abort hygiene: a commit that never publishes keeps nothing
# ----------------------------------------------------------------------
class TestAbortedCommitsLeaveTheCache:
    def primed(self):
        """A client whose cache already holds one published write."""
        cluster, deployment, (client,) = make_clients(
            providers=2, chunk_size=64 * 1024, blob_size=256 * 1024)
        run(cluster, client.vwrite_and_wait(BLOB, [(0, b"k" * 1000)]))
        assert client.chunk_cache.resident_bytes == 1000
        return cluster, deployment, client

    def test_upload_failure_releasing_its_ticket(self):
        """``_release_ticket``: a provider dies under the uploads while the
        ticket request is in flight beside them."""
        cluster, deployment, client = self.primed()

        def fail_mid_upload():
            yield cluster.sim.timeout(3e-4)  # after allocate, before upload ends
            deployment.fail_provider("bs-data1")

        def doomed():
            cluster.sim.process(fail_mid_upload())
            yield from client.vwrite(BLOB, [(0, b"x" * (128 * 1024))])

        with pytest.raises(ProviderUnavailable):
            run(cluster, doomed())
        assert deployment.version_manager.manager.tickets_aborted == 1
        assert client.chunk_cache.resident_bytes == 1000
        # the published write is still served from memory
        assert run(cluster, client.vread(BLOB, [(0, 1000)])) == [b"k" * 1000]
        assert client.extents_fetched == 0

    def test_metadata_failure_aborting_its_version(self):
        """``_abort_version``: every chunk is uploaded and cached, then
        ``put_nodes`` fails and the version is rolled back."""
        cluster, deployment, client = self.primed()
        broken = deployment.metadata_providers[1]

        def down(nodes):
            raise ProviderUnavailable("metadata shard down")
            yield  # pragma: no cover - generator handler shape

        broken.put_nodes = down
        with pytest.raises(ProviderUnavailable):
            run(cluster, client.vwrite(BLOB, [(0, b"torn" * 200)]))
        del broken.put_nodes
        assert deployment.version_manager.manager.tickets_aborted == 1
        assert client.chunk_cache.resident_bytes == 1000
        assert client.chunk_cache.stats.evictions == 0
        assert run(cluster, client.vread(BLOB, [(0, 1000)])) == [b"k" * 1000]

    def test_a_failed_batch_is_cached_when_its_retry_publishes(self):
        """The coalescer keeps a failed batch staged; the retry uploads new
        chunks and those are the ones held."""
        cluster, deployment, client = self.primed()

        def down(nodes):
            raise ProviderUnavailable("metadata shard down")
            yield  # pragma: no cover - generator handler shape

        for shard in deployment.metadata_providers:
            shard.put_nodes = down
        run(cluster, client.vwrite_queued(BLOB, [(5000, b"r" * 300)]))
        with pytest.raises(ProviderUnavailable):
            run(cluster, client.vbarrier(BLOB))
        assert client.chunk_cache.resident_bytes == 1000
        for shard in deployment.metadata_providers:
            del shard.put_nodes
        run(cluster, client.vbarrier(BLOB))
        assert client.chunk_cache.resident_bytes == 1300
        assert run(cluster, client.vread(BLOB, [(5000, 300)])) == [b"r" * 300]
        assert client.extents_fetched == 0
