"""Tests for speculative child prefetch on the metadata read path.

The shard answering a frontier ``get_nodes`` also resolves, for every inner
node it returns, the child lookups the traversal will issue next — but only
for range keys it *owns*: a foreign key missing from a shard's map means
"stored elsewhere", not "never written", and shipping it as a negative
would poison every cache it lands in.  The tests pin the authoritative-only
rule, the round-trip reduction, and byte-identical results.
"""

import pytest

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.chunk import ChunkKey
from repro.blobseer.deployment import BlobSeerDeployment
from repro.blobseer.metadata.segment_tree import (
    build_leaf_segments,
    build_write_metadata,
    split_vector_into_pieces,
)
from repro.blobseer.metadata.store import MetadataStore, PartitionedMetadataStore
from repro.cluster import Cluster, ClusterConfig
from repro.core.listio import IOVector
from repro.vstore.client import VectoredClient

CHUNK = 32
BLOB = BlobDescriptor.create("pf", size=16 * CHUNK, chunk_size=CHUNK)


def store_with_history(versions=1):
    """One unsharded store holding `versions` full-cover writes."""
    store = MetadataStore()
    for version in range(1, versions + 1):
        vector = IOVector.contiguous_write(0, bytes([version]) * BLOB.capacity)
        pieces = split_vector_into_pieces(BLOB, vector)
        for index, piece in enumerate(pieces):
            piece.chunk = ChunkKey(f"w{version}", index)
            piece.provider_id = "p0"
        nodes = build_write_metadata(
            BLOB, version, version - 1, build_leaf_segments(BLOB, pieces))
        for node in nodes:
            store.put_node(node)
    return store


class TestStorePrefetchCandidates:
    def test_children_of_inner_nodes_are_resolved(self):
        store = store_with_history()
        root = store.get_at_or_before(BLOB.blob_id, 0, BLOB.capacity, 1)
        extras = dict(store.prefetch_candidates(BLOB.blob_id, [root]))
        left = (root.left.offset, root.left.size, root.left.version_hint)
        right = (root.right.offset, root.right.size, root.right.version_hint)
        assert set(extras) == {left, right}
        assert all(node is not None for node in extras.values())

    def test_leaf_base_version_is_resolved(self):
        store = store_with_history(versions=2)
        leaf = store.get_at_or_before(BLOB.blob_id, 0, CHUNK, 2)
        assert leaf.is_leaf and leaf.base_version == 1
        extras = dict(store.prefetch_candidates(BLOB.blob_id, [leaf]))
        assert (0, CHUNK, 1) in extras
        assert extras[(0, CHUNK, 1)].key.version == 1

    def test_owns_filter_excludes_foreign_keys(self):
        store = store_with_history()
        root = store.get_at_or_before(BLOB.blob_id, 0, BLOB.capacity, 1)
        extras = store.prefetch_candidates(BLOB.blob_id, [root],
                                           owns=lambda offset, size: False)
        assert extras == []

    def test_none_nodes_are_skipped(self):
        store = store_with_history()
        assert store.prefetch_candidates(BLOB.blob_id, [None]) == []

    def test_results_are_deduplicated(self):
        store = store_with_history()
        root = store.get_at_or_before(BLOB.blob_id, 0, BLOB.capacity, 1)
        extras = store.prefetch_candidates(BLOB.blob_id, [root, root])
        assert len(extras) == 2


class TestProviderAuthority:
    """Provider-level prefetch only ships keys its shard owns."""

    def build(self, num_shards):
        cluster = Cluster(config=ClusterConfig(metadata_prefetch=True))
        deployment = BlobSeerDeployment(cluster, num_providers=2,
                                        num_metadata_providers=num_shards,
                                        chunk_size=CHUNK)
        return cluster, deployment

    def test_extras_are_owned_by_the_answering_shard(self):
        cluster, deployment = self.build(num_shards=3)
        client = VectoredClient(deployment, cluster.add_node("cn"), name="c")

        def main():
            yield from client.create_blob("b", 16 * CHUNK)
            yield from client.vwrite_and_wait("b", [(0, b"q" * 16 * CHUNK)])
            client.metadata_cache.clear()
            pieces = yield from client.vread("b", [(0, 16 * CHUNK)], 1)
            return pieces

        process = cluster.sim.process(main())
        cluster.sim.run(stop_event=process)
        assert process.value == [b"q" * 16 * CHUNK]

        # re-ask each provider directly and check ownership of every extra
        shard_count = len(deployment.metadata_providers)
        for provider in deployment.metadata_providers:
            requests = [(0, 16 * CHUNK, 1)]
            handler = provider.get_nodes("b", requests, True)
            result = None
            try:
                while True:
                    next(handler)
            except StopIteration as stop:
                result = stop.value
            _nodes, extras = result
            for (offset, size, _hint), _node in extras:
                index = PartitionedMetadataStore.partition_index(
                    "b", offset, size, shard_count)
                assert index == provider.shard_index

    def test_prefetch_counter_and_rpc_reduction(self):
        """With one shard every level's children prefetch, roughly halving
        the level round-trips of a cold traversal."""
        results = {}
        for prefetch in (False, True):
            cluster = Cluster(
                config=ClusterConfig(metadata_prefetch=prefetch))
            deployment = BlobSeerDeployment(cluster, num_providers=2,
                                            num_metadata_providers=1,
                                            chunk_size=CHUNK)
            client = VectoredClient(deployment, cluster.add_node("cn"),
                                    name="c", write_through_cache=False)

            def main():
                yield from client.create_blob("b", 16 * CHUNK)
                yield from client.vwrite_and_wait(
                    "b", [(0, b"r" * 16 * CHUNK)])
                pieces = yield from client.vread("b", [(0, 16 * CHUNK)], 1)
                return pieces

            process = cluster.sim.process(main())
            cluster.sim.run(stop_event=process)
            results[prefetch] = (process.value, client.metadata_read_rpcs,
                                 client.tiers.count("shards", "prefetched_nodes"),
                                 deployment.stats())

        assert results[True][0] == results[False][0]
        assert results[True][1] < results[False][1]
        assert results[True][2] > 0
        assert results[False][2] == 0
        assert results[True][3]["metadata_prefetched_nodes"] > 0

    def test_prefetch_is_byte_identical_on_sharded_deployments(self):
        """Cross-shard children are skipped, never mis-answered: a sharded
        deployment with prefetch returns the same bytes as without."""
        data = bytes(range(256)) * (16 * CHUNK // 256)
        pieces_by_mode = {}
        for prefetch in (False, True):
            cluster, deployment = self.build(num_shards=3)
            writer = VectoredClient(deployment, cluster.add_node("w"),
                                    name="w", metadata_prefetch=False)
            reader = VectoredClient(deployment, cluster.add_node("r"),
                                    name="r", metadata_prefetch=prefetch)

            def main():
                yield from writer.create_blob("b", 16 * CHUNK)
                yield from writer.vwrite_and_wait("b", [(0, data)])
                yield from writer.vwrite_and_wait(
                    "b", [(3 * CHUNK, b"#" * CHUNK)])
                pieces = yield from reader.vread(
                    "b", [(0, 16 * CHUNK), (2 * CHUNK, 4 * CHUNK)], 2)
                return pieces

            process = cluster.sim.process(main())
            cluster.sim.run(stop_event=process)
            pieces_by_mode[prefetch] = process.value

        assert pieces_by_mode[True] == pieces_by_mode[False]
        expected = bytearray(data)
        expected[3 * CHUNK:4 * CHUNK] = b"#" * CHUNK
        assert pieces_by_mode[True][0] == bytes(expected)
