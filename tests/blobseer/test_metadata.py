"""Unit tests for the versioned segment tree (nodes, store, build, read plan)."""

import pytest

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.chunk import ChunkKey
from repro.blobseer.metadata.nodes import ChildRef, LeafSegment, MetadataNode, NodeKey
from repro.blobseer.metadata.segment_tree import (
    build_leaf_segments,
    build_write_metadata,
    overlay_segments,
    plan_read,
    split_vector_into_pieces,
)
from repro.blobseer.metadata.store import MetadataStore, PartitionedMetadataStore
from repro.core.listio import IOVector
from repro.core.regions import RegionList
from repro.errors import InvalidRegion, OutOfBounds, VersionNotFound


def seg(rel, length, writer="w", seq=0, chunk_offset=0, provider="p0"):
    return LeafSegment(rel, length, ChunkKey(writer, seq), chunk_offset, provider)


BLOB = BlobDescriptor.create("blob", size=8 * 64, chunk_size=64)


class TestNodes:
    def test_leaf_segments_must_be_sorted_disjoint(self):
        key = NodeKey("b", 1, 0, 64)
        MetadataNode(key, True, segments=(seg(0, 8), seg(8, 8)), base_version=0)
        with pytest.raises(InvalidRegion):
            MetadataNode(key, True, segments=(seg(0, 10), seg(5, 8)), base_version=0)

    def test_leaf_segment_must_fit_leaf(self):
        key = NodeKey("b", 1, 0, 64)
        with pytest.raises(InvalidRegion):
            MetadataNode(key, True, segments=(seg(60, 10),), base_version=0)

    def test_inner_node_needs_children(self):
        key = NodeKey("b", 1, 0, 128)
        with pytest.raises(InvalidRegion):
            MetadataNode(key, False)
        MetadataNode(key, False, left=ChildRef(0, 0, 64), right=ChildRef(0, 64, 64))

    def test_leaf_cannot_have_children(self):
        key = NodeKey("b", 1, 0, 64)
        with pytest.raises(InvalidRegion):
            MetadataNode(key, True, left=ChildRef(0, 0, 32), right=ChildRef(0, 32, 32))

    def test_invalid_segment(self):
        with pytest.raises(InvalidRegion):
            seg(-1, 5)
        with pytest.raises(InvalidRegion):
            seg(0, 0)


class TestMetadataStore:
    def test_at_or_before_resolution(self):
        store = MetadataStore()
        for version in (1, 3, 7):
            store.put_node(MetadataNode(NodeKey("b", version, 0, 64), True,
                                        segments=(seg(0, 8, seq=version),),
                                        base_version=version - 1))
        assert store.get_at_or_before("b", 0, 64, 0) is None
        assert store.get_at_or_before("b", 0, 64, 1).key.version == 1
        assert store.get_at_or_before("b", 0, 64, 2).key.version == 1
        assert store.get_at_or_before("b", 0, 64, 6).key.version == 3
        assert store.get_at_or_before("b", 0, 64, 100).key.version == 7

    def test_reput_same_version_is_idempotent(self):
        store = MetadataStore()
        node = MetadataNode(NodeKey("b", 1, 0, 64), True,
                            segments=(seg(0, 8),), base_version=0)
        store.put_node(node)
        store.put_node(node)
        assert store.node_count() == 1

    def test_get_exact(self):
        store = MetadataStore()
        node = MetadataNode(NodeKey("b", 2, 0, 64), True,
                            segments=(seg(0, 8),), base_version=1)
        store.put_node(node)
        assert store.get_exact(NodeKey("b", 2, 0, 64)) is node
        with pytest.raises(VersionNotFound):
            store.get_exact(NodeKey("b", 3, 0, 64))

    def test_partitioning_is_stable_and_covers_all_shards(self):
        shards = [MetadataStore(f"m{i}") for i in range(4)]
        partitioned = PartitionedMetadataStore(shards)
        seen = set()
        for offset in range(0, 64 * 64, 64):
            index = PartitionedMetadataStore.partition_index("b", offset, 64, 4)
            assert 0 <= index < 4
            assert index == PartitionedMetadataStore.partition_index("b", offset, 64, 4)
            seen.add(index)
        assert seen == {0, 1, 2, 3}

    def test_partitioned_put_get(self):
        partitioned = PartitionedMetadataStore([MetadataStore("m0"), MetadataStore("m1")])
        node = MetadataNode(NodeKey("b", 1, 64, 64), True,
                            segments=(seg(0, 8),), base_version=0)
        partitioned.put_node(node)
        assert partitioned.get_at_or_before("b", 64, 64, 1) is node
        assert partitioned.node_count() == 1

    def test_batched_get_nodes_aligned_with_requests(self):
        shards = [MetadataStore("m0"), MetadataStore("m1")]
        partitioned = PartitionedMetadataStore(shards)
        nodes = [MetadataNode(NodeKey("b", 1, offset, 64), True,
                              segments=(seg(0, 8),), base_version=0)
                 for offset in (0, 64, 192)]
        for node in nodes:
            partitioned.put_node(node)
        requests = [(0, 64, 5), (128, 64, 5), (64, 64, 5), (192, 64, 0)]
        # routed across shards, results aligned with request order;
        # never-written (128) and too-old-hint (192 at hint 0) come back None
        # (no runs wanted: no base-chain links)
        assert partitioned.get_nodes("b", requests) == \
            ([nodes[0], None, nodes[1], None], [])
        # the per-shard form (what one get_nodes RPC executes) agrees
        for shard in shards:
            assert shard.get_nodes("b", requests[:2]) == ([
                shard.get_at_or_before("b", 0, 64, 5),
                shard.get_at_or_before("b", 128, 64, 5)], [])

    def test_group_by_shard_partitions_consistently(self):
        partitioned = PartitionedMetadataStore([MetadataStore("m0"), MetadataStore("m1")])
        requests = [(offset, 64, 3) for offset in range(0, 16 * 64, 64)]
        grouped = partitioned.group_by_shard("b", requests)
        assert sorted(r for reqs in grouped.values() for r in reqs) == requests
        for index, shard_requests in grouped.items():
            for offset, size, _ in shard_requests:
                assert PartitionedMetadataStore.partition_index(
                    "b", offset, size, 2) == index

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            PartitionedMetadataStore([])


class TestSplitVector:
    def test_split_respects_chunk_boundaries(self):
        vector = IOVector.for_write([(50, b"x" * 100)])
        pieces = split_vector_into_pieces(BLOB, vector)
        assert [(p.leaf_offset, p.rel_offset, p.length) for p in pieces] == [
            (0, 50, 14), (64, 0, 64), (128, 0, 22)]
        assert b"".join(p.data for p in pieces) == b"x" * 100

    def test_split_multiple_requests_keeps_order(self):
        vector = IOVector.for_write([(0, b"a" * 10), (100, b"b" * 10)])
        pieces = split_vector_into_pieces(BLOB, vector)
        assert [p.request_index for p in pieces] == [0, 1]

    def test_zero_length_requests_skipped(self):
        vector = IOVector.for_write([(0, b""), (10, b"xy")])
        pieces = split_vector_into_pieces(BLOB, vector)
        assert len(pieces) == 1

    def test_out_of_bounds_rejected(self):
        vector = IOVector.for_write([(8 * 64 - 1, b"ab")])
        with pytest.raises(OutOfBounds):
            split_vector_into_pieces(BLOB, vector)

    def test_read_vector_rejected(self):
        with pytest.raises(InvalidRegion):
            split_vector_into_pieces(BLOB, IOVector.for_read([(0, 4)]))


class TestOverlaySegments:
    def test_non_overlapping_appended_sorted(self):
        result = overlay_segments([seg(0, 10)], seg(20, 10, seq=1))
        assert [(s.rel_offset, s.length) for s in result] == [(0, 10), (20, 10)]

    def test_new_segment_wins_on_overlap(self):
        result = overlay_segments([seg(0, 20)], seg(5, 10, seq=1))
        assert [(s.rel_offset, s.length) for s in result] == [(0, 5), (5, 10), (15, 5)]
        # the surviving right piece must skip the overwritten bytes
        assert result[2].chunk_offset == 15

    def test_new_segment_fully_covers_old(self):
        result = overlay_segments([seg(5, 10)], seg(0, 30, seq=1))
        assert [(s.rel_offset, s.length) for s in result] == [(0, 30)]

    def test_chain_of_overlays(self):
        segments = []
        for index in range(4):
            segments = overlay_segments(segments, seg(index * 4, 8, seq=index))
        assert [(s.rel_offset, s.length) for s in segments] == \
            [(0, 4), (4, 4), (8, 4), (12, 8)]


class TestBuildWriteMetadata:
    def _segments_for(self, vector, version=1, base=0):
        pieces = split_vector_into_pieces(BLOB, vector)
        for index, piece in enumerate(pieces):
            piece.chunk = ChunkKey("w", index)
            piece.provider_id = "p0"
        leaf_segments = build_leaf_segments(BLOB, pieces)
        return build_write_metadata(BLOB, version, base, leaf_segments)

    def test_single_leaf_write_creates_path_to_root(self):
        nodes = self._segments_for(IOVector.for_write([(0, b"x" * 10)]))
        sizes = sorted(node.key.size for node in nodes)
        # leaf (64) + inner 128, 256, 512 (root) for an 8-leaf tree
        assert sizes == [64, 128, 256, 512]
        root = [n for n in nodes if n.key.size == BLOB.capacity][0]
        assert not root.is_leaf
        assert root.left.version_hint == 1      # touched side
        assert root.right.version_hint == 0     # shadowed side

    def test_two_distant_leaves_share_root(self):
        nodes = self._segments_for(IOVector.for_write([(0, b"x" * 10),
                                                       (7 * 64, b"y" * 10)]))
        roots = [n for n in nodes if n.key.size == BLOB.capacity]
        assert len(roots) == 1
        assert roots[0].left.version_hint == 1
        assert roots[0].right.version_hint == 1

    def test_unplaced_pieces_rejected(self):
        pieces = split_vector_into_pieces(BLOB, IOVector.for_write([(0, b"ab")]))
        with pytest.raises(InvalidRegion):
            build_leaf_segments(BLOB, pieces)

    def test_empty_write_rejected(self):
        with pytest.raises(InvalidRegion):
            build_write_metadata(BLOB, 1, 0, {})

    def test_full_blob_write_creates_all_nodes(self):
        nodes = self._segments_for(IOVector.for_write([(0, b"z" * BLOB.capacity)]))
        # 8 leaves + 4 + 2 + 1 inner nodes
        assert len(nodes) == 15


class _StoreReader:
    """Adapter store -> get_node callback used by plan_read tests."""

    def __init__(self, blob):
        self.blob = blob
        self.store = MetadataStore()

    def write(self, version, base, vector, writer="w"):
        pieces = split_vector_into_pieces(self.blob, vector)
        for index, piece in enumerate(pieces):
            piece.chunk = ChunkKey(f"{writer}v{version}", index)
            piece.provider_id = "p0"
        leaf_segments = build_leaf_segments(self.blob, pieces)
        for node in build_write_metadata(self.blob, version, base, leaf_segments):
            self.store.put_node(node)
        return pieces

    def get_node(self, offset, size, hint):
        return self.store.get_at_or_before(self.blob.blob_id, offset, size, hint)


class TestPlanRead:
    def test_unwritten_blob_reads_zero(self):
        reader = _StoreReader(BLOB)
        plan = plan_read(BLOB, 0, RegionList([(0, 100)]), reader.get_node)
        assert plan.chunk_bytes() == 0
        assert plan.zero_bytes() == 100

    def test_read_resolves_written_chunks(self):
        reader = _StoreReader(BLOB)
        reader.write(1, 0, IOVector.for_write([(10, b"a" * 20)]))
        plan = plan_read(BLOB, 1, RegionList([(0, 64)]), reader.get_node)
        assert plan.chunk_bytes() == 20
        assert plan.zero_bytes() == 44
        covered = sorted((e.offset, e.length) for e in plan.extents)
        assert sum(length for _, length in covered) == 64

    def test_snapshot_isolation_older_version_unaffected(self):
        reader = _StoreReader(BLOB)
        reader.write(1, 0, IOVector.for_write([(0, b"a" * 64)]))
        reader.write(2, 1, IOVector.for_write([(0, b"b" * 64)]))
        plan_v1 = plan_read(BLOB, 1, RegionList([(0, 64)]), reader.get_node)
        plan_v2 = plan_read(BLOB, 2, RegionList([(0, 64)]), reader.get_node)
        assert plan_v1.extents[0].chunk.writer == "wv1"
        assert plan_v2.extents[0].chunk.writer == "wv2"

    def test_partial_leaf_falls_back_to_base_version(self):
        reader = _StoreReader(BLOB)
        reader.write(1, 0, IOVector.for_write([(0, b"a" * 64)]))
        reader.write(2, 1, IOVector.for_write([(16, b"b" * 16)]))
        plan = plan_read(BLOB, 2, RegionList([(0, 64)]), reader.get_node)
        by_writer = {}
        for extent in plan.extents:
            by_writer.setdefault(extent.chunk.writer, 0)
            by_writer[extent.chunk.writer] += extent.length
        assert by_writer == {"wv1": 48, "wv2": 16}

    def test_shadowed_subtree_resolved_through_older_version(self):
        reader = _StoreReader(BLOB)
        reader.write(1, 0, IOVector.for_write([(7 * 64, b"x" * 64)]))
        reader.write(2, 1, IOVector.for_write([(0, b"y" * 64)]))
        plan = plan_read(BLOB, 2, RegionList([(7 * 64, 64)]), reader.get_node)
        assert plan.extents[0].chunk.writer == "wv1"

    def test_read_out_of_bounds_rejected(self):
        reader = _StoreReader(BLOB)
        with pytest.raises(OutOfBounds):
            plan_read(BLOB, 0, RegionList([(BLOB.capacity - 1, 2)]), reader.get_node)

    def test_empty_read_plan(self):
        reader = _StoreReader(BLOB)
        plan = plan_read(BLOB, 0, RegionList(), reader.get_node)
        assert plan.extents == []

    def test_noncontiguous_read_plan(self):
        reader = _StoreReader(BLOB)
        reader.write(1, 0, IOVector.for_write([(0, b"a" * 8), (128, b"c" * 8)]))
        plan = plan_read(BLOB, 1, RegionList([(0, 8), (128, 8)]), reader.get_node)
        assert plan.chunk_bytes() == 16
        assert plan.zero_bytes() == 0

    def test_metadata_accounting(self):
        reader = _StoreReader(BLOB)
        reader.write(1, 0, IOVector.for_write([(0, b"a" * 8)]))
        plan = plan_read(BLOB, 1, RegionList([(0, 8)]), reader.get_node)
        assert plan.nodes_fetched >= BLOB.tree_depth + 1
        assert plan.levels >= BLOB.tree_depth + 1
