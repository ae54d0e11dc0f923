"""Integration tests: BlobSeer deployment + client on a simulated cluster."""

import pytest

from repro.blobseer import BlobClient, BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.errors import VersionNotFound


def small_config():
    return ClusterConfig(network_latency=1e-5, disk_overhead=1e-4)


def make_deployment(num_providers=3, num_metadata_providers=2, chunk_size=64,
                    **kwargs):
    cluster = Cluster(config=small_config())
    deployment = BlobSeerDeployment(
        cluster, num_providers=num_providers,
        num_metadata_providers=num_metadata_providers,
        chunk_size=chunk_size, **kwargs)
    return cluster, deployment


def run(cluster, generator):
    process = cluster.sim.process(generator)
    return cluster.sim.run(stop_event=process)


class TestContiguousReadWrite:
    def test_write_then_read_roundtrip(self):
        cluster, deployment = make_deployment()
        node = cluster.add_node("c0")
        client = BlobClient(deployment, node)

        def scenario():
            yield from client.create_blob("data", size=1024)
            receipt = yield from client.write("data", 100, b"hello world")
            yield from client.wait_published("data", receipt.version)
            content = yield from client.read("data", 100, 11)
            return receipt, content

        receipt, content = run(cluster, scenario())
        assert content == b"hello world"
        assert receipt.version == 1
        assert receipt.elapsed > 0

    def test_unwritten_bytes_read_as_zero(self):
        cluster, deployment = make_deployment()
        client = BlobClient(deployment, cluster.add_node("c0"))

        def scenario():
            yield from client.create_blob("data", size=256)
            yield from client.write("data", 0, b"abc")
            content = yield from client.read("data", 0, 10)
            return content

        assert run(cluster, scenario()) == b"abc" + b"\x00" * 7

    def test_write_spanning_multiple_chunks(self):
        cluster, deployment = make_deployment(chunk_size=64)
        client = BlobClient(deployment, cluster.add_node("c0"))
        payload = bytes(range(256)) * 2  # 512 bytes over 8+ chunks

        def scenario():
            yield from client.create_blob("data", size=1024)
            receipt = yield from client.write("data", 30, payload)
            content = yield from client.read("data", 30, len(payload))
            return receipt, content

        receipt, content = run(cluster, scenario())
        assert content == payload
        assert receipt.chunks >= 8

    def test_chunks_distributed_round_robin(self):
        cluster, deployment = make_deployment(num_providers=4, chunk_size=64)
        client = BlobClient(deployment, cluster.add_node("c0"))

        def scenario():
            yield from client.create_blob("data", size=4096)
            yield from client.write("data", 0, b"z" * 4096)

        run(cluster, scenario())
        counts = [service.store.chunk_count()
                  for service in deployment.data_providers.values()]
        assert sum(counts) == 4096 // 64
        assert max(counts) - min(counts) <= 1  # evenly striped

    def test_versioned_reads_see_old_snapshots(self):
        cluster, deployment = make_deployment()
        client = BlobClient(deployment, cluster.add_node("c0"))

        def scenario():
            yield from client.create_blob("data", size=256)
            first = yield from client.write("data", 0, b"AAAA")
            second = yield from client.write("data", 0, b"BBBB")
            yield from client.wait_published("data", second.version)
            old = yield from client.read("data", 0, 4, version=first.version)
            new = yield from client.read("data", 0, 4, version=second.version)
            latest = yield from client.read("data", 0, 4)
            return old, new, latest

        old, new, latest = run(cluster, scenario())
        assert old == b"AAAA"
        assert new == b"BBBB"
        assert latest == b"BBBB"

    def test_reading_unpublished_version_rejected(self):
        cluster, deployment = make_deployment()
        client = BlobClient(deployment, cluster.add_node("c0"))

        def scenario():
            yield from client.create_blob("data", size=256)
            yield from client.write("data", 0, b"abcd")
            yield from client.read("data", 0, 4, version=99)

        with pytest.raises(VersionNotFound):
            run(cluster, scenario())


class TestConcurrentWriters:
    def test_concurrent_disjoint_writers_all_published(self):
        cluster, deployment = make_deployment(num_providers=4)
        nodes = cluster.add_nodes("client", 4)
        clients = [BlobClient(deployment, node) for node in nodes]

        def writer(client, rank):
            receipt = yield from client.write("data", rank * 128, bytes([rank]) * 128)
            return receipt.version

        def scenario():
            yield from clients[0].create_blob("data", size=1024)
            processes = [cluster.sim.process(writer(client, rank))
                         for rank, client in enumerate(clients)]
            yield cluster.sim.all_of(processes)
            yield from clients[0].wait_published("data", 4)
            content = yield from clients[0].read("data", 0, 512)
            return content

        content = run(cluster, scenario())
        for rank in range(4):
            assert content[rank * 128:(rank + 1) * 128] == bytes([rank]) * 128

    def test_concurrent_overlapping_writers_serialize_by_version(self):
        cluster, deployment = make_deployment(num_providers=4)
        nodes = cluster.add_nodes("client", 3)
        clients = [BlobClient(deployment, node) for node in nodes]

        def writer(client, rank):
            receipt = yield from client.write("data", 0, bytes([65 + rank]) * 64)
            return receipt.version

        def scenario():
            yield from clients[0].create_blob("data", size=256)
            processes = [cluster.sim.process(writer(client, rank))
                         for rank, client in enumerate(clients)]
            yield cluster.sim.all_of(processes)
            versions = [process.value for process in processes]
            yield from clients[0].wait_published("data", max(versions))
            final = yield from clients[0].read("data", 0, 64)
            per_version = []
            for version in versions:
                content = yield from clients[0].read("data", 0, 64, version=version)
                per_version.append((version, content))
            return versions, final, per_version

        versions, final, per_version = run(cluster, scenario())
        assert sorted(versions) == [1, 2, 3]
        # the final state is exactly the content of the highest version
        highest = max(per_version)[1]
        assert final == highest
        # every published snapshot is uniform (no mixing inside one write)
        for _version, content in per_version:
            assert len(set(content)) == 1

    def test_deployment_stats(self):
        cluster, deployment = make_deployment()
        client = BlobClient(deployment, cluster.add_node("c0"))

        def scenario():
            yield from client.create_blob("data", size=1024)
            yield from client.write("data", 0, b"x" * 512)

        run(cluster, scenario())
        stats = deployment.stats()
        assert stats["chunks"] == 8
        assert stats["stored_bytes"] == 512
        assert stats["snapshots_published"] == 1
        assert stats["metadata_nodes"] > 0


class TestMetadataReadPathModes:
    """The cached and uncached read paths agree byte-for-byte."""

    PAIRS = [(0, b"a" * 100), (150, b"b" * 40), (400, b"c" * 200)]
    READS = [(0, 120), (140, 60), (380, 240), (900, 100)]

    def _read_all(self, **client_options):
        cluster, deployment = make_deployment(chunk_size=64)
        client = BlobClient(deployment, cluster.add_node("c0"),
                            **client_options)

        def scenario():
            yield from client.create_blob("data", size=1024)
            for offset, payload in self.PAIRS:
                receipt = yield from client.write("data", offset, payload)
                yield from client.wait_published("data", receipt.version)
            results = []
            for _ in range(2):  # second pass exercises the warm cache
                for offset, size in self.READS:
                    content = yield from client.read("data", offset, size)
                    results.append(content)
            return results

        return run(cluster, scenario()), client, deployment

    def test_all_modes_read_identical_bytes(self):
        uncached, base_client, _ = self._read_all(enable_metadata_cache=False)
        content, client, _ = self._read_all()
        assert content == uncached
        assert client.tiers.shard_stats.read_rpcs < base_client.tiers.shard_stats.read_rpcs

    def test_a_cold_read_costs_one_round_per_shard_at_most(self):
        """Every leaf a read touches is looked up at the read version in
        one round, and the shards ship the base chains along: a cold
        reader pays at most one ``get_nodes`` per shard per read, however
        deep the tree or the chains, and reads the writer's bytes."""
        cluster, deployment = make_deployment(chunk_size=64)
        writer = BlobClient(deployment, cluster.add_node("w"))

        def write():
            yield from writer.create_blob("data", size=1024)
            for offset, payload in self.PAIRS:
                receipt = yield from writer.write("data", offset, payload)
                yield from writer.wait_published("data", receipt.version)
            return receipt.version

        version = run(cluster, write())
        shards = len(deployment.metadata_providers)
        for offset, size in self.READS:
            reader = BlobClient(deployment, cluster.add_node(f"r{offset}"))
            content = run(cluster, reader.read("data", offset, size,
                                               version=version))
            expected = bytearray(size)
            for start, payload in self.PAIRS:
                for index, byte in enumerate(payload):
                    if offset <= start + index < offset + size:
                        expected[start + index - offset] = byte
            assert content == bytes(expected)
            assert 0 < reader.tiers.shard_stats.read_rpcs <= shards

    def test_batching_and_cache_cut_round_trips(self):
        _, base_client, base_deployment = self._read_all(
            enable_metadata_cache=False)
        _, fast_client, fast_deployment = self._read_all()
        assert base_client.tiers.shard_stats.read_rpcs > fast_client.tiers.shard_stats.read_rpcs
        # the client-side counter agrees with the service-side accounting
        assert (base_deployment.stats()["metadata_read_rpcs"]
                == base_client.tiers.shard_stats.read_rpcs)
        assert (fast_deployment.stats()["metadata_read_rpcs"]
                == fast_client.tiers.shard_stats.read_rpcs)
        # warm second pass means a real hit rate
        stats = fast_client.metadata_cache.stats
        assert stats.hits > 0.4 * stats.lookups


@pytest.mark.parametrize("seed", range(20))
def test_assemble_scatters_disjoint_extents_into_each_request(seed):
    """``assemble`` against the obvious reference (paint every extent onto
    a file image, slice the requests out): requests inside one extent,
    requests spanning extents, reaching into gaps or into holes (extents
    with no bytes) must agree with the image, in both shapes — one
    ``bytes`` per request, and the requests back to back as one."""
    import random
    from repro.core.listio import IOVector, assemble

    rng = random.Random(seed)
    size = 4096
    image = bytearray(size)
    fetched, cursor = [], 0
    while cursor < size - 64:
        cursor += rng.choice([0, 0, rng.randint(1, 40)])     # maybe a gap
        length = rng.randint(1, 300)
        if cursor + length > size:
            break
        if rng.random() < 0.2:
            fetched.append((cursor, length, None))     # a hole
        else:
            data = bytes(rng.randrange(1, 256) for _ in range(length))
            image[cursor:cursor + length] = data
            fetched.append((cursor, length, rng.choice(
                [data, memoryview(b"?" + data)[1:]])))
        cursor += length
    rng.shuffle(fetched)
    pairs = [(rng.randrange(size - 400), rng.randint(0, 400))
             for _ in range(30)]
    # and some requests exactly inside one extent, edges included
    for offset, length, _data in fetched[:10]:
        start = offset + rng.randint(0, length - 1)
        pairs.append((start, rng.randint(0, offset + length - start)))
    fetched.sort(key=lambda extent: extent[0])
    vector = IOVector.for_read(pairs)
    results = assemble(vector, fetched)
    assert results == [bytes(image[offset:offset + length])
                       for offset, length in pairs]
    assert all(type(result) is bytes for result in results)
    joined = assemble(vector, fetched, joined=True)
    assert type(joined) is bytes and joined == b"".join(results)
