"""Property-based tests of the versioned segment tree.

A reference model (a plain list of full-file byte arrays, one per version)
is compared against the segment-tree metadata for arbitrary sequences of
non-contiguous writes: every snapshot must read back exactly as the reference
content of that version, for arbitrary read ranges.
"""

from hypothesis import given, settings, strategies as st

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.chunk import ChunkKey
from repro.blobseer.metadata.segment_tree import (
    build_leaf_segments,
    build_write_metadata,
    plan_read,
    split_vector_into_pieces,
)
from repro.blobseer.metadata.store import MetadataStore
from repro.core.listio import IOVector
from tests._regions import RegionList

CHUNK = 32
BLOB = BlobDescriptor.create("prop", size=16 * CHUNK, chunk_size=CHUNK)


@st.composite
def write_sequences(draw):
    """A sequence of vectored writes, each a few random regions."""
    num_writes = draw(st.integers(1, 5))
    sequence = []
    for _ in range(num_writes):
        num_regions = draw(st.integers(1, 4))
        pairs = []
        for _ in range(num_regions):
            offset = draw(st.integers(0, BLOB.capacity - 1))
            size = draw(st.integers(1, min(3 * CHUNK, BLOB.capacity - offset)))
            fill = draw(st.integers(1, 255))
            pairs.append((offset, bytes([fill]) * size))
        sequence.append(pairs)
    return sequence


class TreeModel:
    """Segment tree + chunk payloads, next to a plain byte-array reference."""

    def __init__(self):
        self.store = MetadataStore()
        self.chunks = {}
        self.reference = [bytes(BLOB.capacity)]  # version 0 = zeros

    def write(self, version, pairs):
        vector = IOVector.for_write(pairs)
        pieces = split_vector_into_pieces(BLOB, vector)
        for index, piece in enumerate(pieces):
            piece.chunk = ChunkKey(f"v{version}", index)
            piece.provider_id = "p0"
            self.chunks[piece.chunk] = piece.data
        for node in build_write_metadata(BLOB, version, version - 1,
                                         build_leaf_segments(BLOB, pieces)):
            self.store.put_node(node)
        content = bytearray(self.reference[version - 1])
        vector.apply_to(content)
        self.reference.append(bytes(content[:BLOB.capacity]))

    def read(self, version, regions):
        plan = plan_read(BLOB, version, regions,
                         lambda offset, size, hint: self.store.get_at_or_before(
                             BLOB.blob_id, offset, size, hint))
        buffer = bytearray()
        extents = sorted(plan.extents, key=lambda extent: extent.offset)
        for extent in extents:
            if extent.is_zero:
                buffer.extend(b"\x00" * extent.length)
            else:
                chunk = self.chunks[extent.chunk]
                buffer.extend(chunk[extent.chunk_offset:
                                    extent.chunk_offset + extent.length])
        return bytes(buffer)

    def reference_read(self, version, regions):
        content = self.reference[version]
        return b"".join(content[region.offset:region.end]
                        for region in RegionList(regions).normalized())


@settings(max_examples=60, deadline=None)
@given(sequence=write_sequences(), data=st.data())
def test_every_snapshot_reads_like_the_reference(sequence, data):
    model = TreeModel()
    for index, pairs in enumerate(sequence, start=1):
        model.write(index, pairs)

    for version in range(len(sequence) + 1):
        # a random read range plus the full-blob read
        offset = data.draw(st.integers(0, BLOB.capacity - 1))
        size = data.draw(st.integers(1, BLOB.capacity - offset))
        for regions in ([(offset, size)],
                        [(0, BLOB.capacity)]):
            assert model.read(version, regions) == \
                model.reference_read(version, regions)


@settings(max_examples=30, deadline=None)
@given(sequence=write_sequences())
def test_old_snapshots_are_immutable(sequence):
    """Writing new versions never changes what older versions read."""
    model = TreeModel()
    full = [(0, BLOB.capacity)]
    snapshots = {0: model.read(0, full)}
    for index, pairs in enumerate(sequence, start=1):
        model.write(index, pairs)
        snapshots[index] = model.read(index, full)
        # every previously captured snapshot still reads identically
        for version, captured in snapshots.items():
            assert model.read(version, full) == captured


@settings(max_examples=30, deadline=None)
@given(sequence=write_sequences())
def test_metadata_node_count_is_bounded(sequence):
    """Copy-on-write publishes O(touched leaves × depth) nodes per write —
    never O(file size): untouched subtrees are shadowed, not copied."""
    model = TreeModel()
    for index, pairs in enumerate(sequence, start=1):
        before = model.store.node_count()
        model.write(index, pairs)
        created = model.store.node_count() - before
        touched_leaves = {BLOB.leaf_offset(offset + delta)
                          for offset, payload in pairs
                          for delta in range(0, len(payload), CHUNK)} | \
                         {BLOB.leaf_offset(offset + len(payload) - 1)
                          for offset, payload in pairs}
        # at most one full root-to-leaf path of new nodes per touched leaf,
        # and at least the leaves themselves plus a new root
        upper_bound = len(touched_leaves) * (BLOB.tree_depth + 1)
        assert len(touched_leaves) + 1 <= created <= upper_bound
