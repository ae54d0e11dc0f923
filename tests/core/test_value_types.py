"""Semantics of the value types built per piece, per extent and per node.

These types are slotted, *unfrozen* dataclasses (``slots=True,
unsafe_hash=True``): immutable by convention, because frozen construction
measured about 2.5x slower on the hot paths.  This suite pins everything the
frozen form used to guarantee apart from the assignment ban — no per-instance
``__dict__``, equality and hashing over the same fields as before, ordering
as the field tuples, every validation error, ``dataclasses.replace`` — and
the derived ``end`` / ``rel_end`` attributes stored at construction.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.chunk import ChunkKey
from repro.blobseer.metadata.nodes import ChildRef, LeafSegment, MetadataNode, NodeKey
from repro.blobseer.metadata.segment_tree import ReadExtent
from repro.core.atomicity import VectoredWrite
from repro.core.listio import IORequest, IOVector
from repro.core.regions import Region
from repro.errors import InvalidRegion
from repro.posixfs.layout import StripeLayout, StripePiece


def _leaf_key():
    return NodeKey("blob", 3, 64, 16)


def _segment():
    return LeafSegment(2, 8, ChunkKey("w0", 5), 0, "provider-1")


#: one factory per converted type (each call builds a fresh, equal
#: instance) and the fields its equality, hash and ordering use
TYPES = {
    "Region": (lambda: Region(4096, 1024), "offset size"),
    "IORequest": (lambda: IORequest(10, 3, b"abc"), "offset size data"),
    "ReadExtent": (lambda: ReadExtent(0, 16, ChunkKey("w0", 1), 4, "provider-0"),
                   "offset length chunk chunk_offset provider_id"),
    "ChunkKey": (lambda: ChunkKey("w0", 7), "writer sequence"),
    "NodeKey": (lambda: NodeKey("blob", 2, 0, 1024), "blob_id version offset size"),
    "ChildRef": (lambda: ChildRef(2, 512, 512), "version_hint offset size"),
    "LeafSegment": (_segment, "rel_offset length chunk chunk_offset provider_id"),
    "MetadataNode:leaf": (
        lambda: MetadataNode(key=_leaf_key(), is_leaf=True,
                             segments=(_segment(),), base_version=1),
        "key is_leaf segments base_version left right"),
    "MetadataNode:inner": (
        lambda: MetadataNode(key=NodeKey("blob", 3, 0, 32), is_leaf=False,
                             left=ChildRef(3, 0, 16), right=ChildRef(1, 16, 16)),
        "key is_leaf segments base_version left right"),
    "StripePiece": (lambda: StripePiece(1, 4096, 512, 65536),
                    "ost_index object_offset length file_offset"),
    "StripeLayout": (lambda: StripeLayout(65536, 4), "stripe_size ost_count"),
    "VectoredWrite": (lambda: VectoredWrite(
        0, IOVector.for_write([(0, b"ab"), (8, b"cd")])), "writer_id vector"),
    "BlobDescriptor": (lambda: BlobDescriptor.create("blob", 1000, 64),
                       "blob_id chunk_size capacity requested_size"),
}


def _compared(instance):
    """The fields equality, hashing and ordering use, as a tuple."""
    return tuple(getattr(instance, f.name) for f in dataclasses.fields(instance)
                 if f.compare)


@pytest.fixture(params=sorted(TYPES))
def make(request):
    return TYPES[request.param][0]


@pytest.mark.parametrize("name", sorted(TYPES))
def test_compares_on_the_same_fields_as_before(name):
    factory, names = TYPES[name]
    assert [f.name for f in dataclasses.fields(factory()) if f.compare] \
        == names.split()


def test_slotted_not_frozen_no_instance_dict(make):
    instance = make()
    params = type(instance).__dataclass_params__
    assert not params.frozen
    assert "__slots__" in type(instance).__dict__
    assert not hasattr(instance, "__dict__")


def test_equal_fields_are_equal_and_hash_equal(make):
    first, second = make(), make()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    # the hash is the field-tuple hash the frozen form had, so hashed
    # containers iterate in the same order as before
    assert hash(first) == hash(_compared(first))


def test_never_equal_to_the_bare_field_tuple(make):
    instance = make()
    fields = _compared(instance)
    assert instance != fields
    assert fields != instance
    all_fields = tuple(getattr(instance, f.name)
                       for f in dataclasses.fields(instance))
    assert instance != all_fields


def test_replace_without_changes_is_an_equal_copy(make):
    instance = make()
    copy = dataclasses.replace(instance)
    assert copy == instance and copy is not instance


def test_unequal_when_a_compared_field_differs():
    assert Region(0, 4) != Region(0, 5)
    assert ChunkKey("w0", 1) != ChunkKey("w1", 1)
    assert NodeKey("b", 1, 0, 8) != NodeKey("b", 2, 0, 8)
    assert IORequest(0, 2, b"ab") != IORequest(0, 2, b"ba")
    assert IORequest(0, 2) != IORequest(0, 2, b"ab")


# ----------------------------------------------------------------------
# ordering
# ----------------------------------------------------------------------
small = st.integers(min_value=0, max_value=64)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(small, small), max_size=30))
def test_regions_sort_as_their_field_tuples(pairs):
    regions = [Region(offset, size) for offset, size in pairs]
    assert [(r.offset, r.size) for r in sorted(regions)] == sorted(pairs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "w10", "w2"]), small),
                max_size=30))
def test_chunk_keys_sort_as_their_field_tuples(pairs):
    keys = [ChunkKey(writer, sequence) for writer, sequence in pairs]
    assert [(k.writer, k.sequence) for k in sorted(keys)] == sorted(pairs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b"]), small, small, small),
                max_size=30))
def test_node_keys_sort_as_their_field_tuples(quads):
    keys = [NodeKey(*quad) for quad in quads]
    assert [(k.blob_id, k.version, k.offset, k.size)
            for k in sorted(keys)] == sorted(quads)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_region_rejects_negative_offset_and_size():
    with pytest.raises(InvalidRegion, match="negative offset"):
        Region(-1, 4)
    with pytest.raises(InvalidRegion, match="negative size"):
        Region(0, -4)
    with pytest.raises(InvalidRegion, match="negative size"):
        dataclasses.replace(Region(0, 4), size=-1)


def test_iorequest_rejects_bad_payload_and_range():
    with pytest.raises(InvalidRegion, match="payload length 2 does not match size 3"):
        IORequest(0, 3, b"ab")
    with pytest.raises(InvalidRegion, match="negative offset"):
        IORequest(-1, 0)
    with pytest.raises(InvalidRegion, match="negative size"):
        IORequest(0, -1)


@pytest.mark.parametrize("rel_offset, length, chunk_offset",
                         [(-1, 4, 0), (0, 0, 0), (0, -3, 0), (0, 4, -1)])
def test_leaf_segment_rejects_invalid_pieces(rel_offset, length, chunk_offset):
    with pytest.raises(InvalidRegion, match="invalid leaf segment"):
        LeafSegment(rel_offset, length, ChunkKey("w", 0), chunk_offset, "p")


def test_metadata_node_rejects_malformed_shapes():
    child = ChildRef(1, 0, 8)
    with pytest.raises(InvalidRegion, match="leaf nodes cannot have children"):
        MetadataNode(key=_leaf_key(), is_leaf=True, left=child)
    with pytest.raises(InvalidRegion, match="leaf nodes cannot have children"):
        MetadataNode(key=_leaf_key(), is_leaf=True, right=child)
    with pytest.raises(InvalidRegion, match="inner nodes need both children"):
        MetadataNode(key=NodeKey("b", 1, 0, 16), is_leaf=False, left=child)
    with pytest.raises(InvalidRegion, match="inner nodes need both children"):
        MetadataNode(key=NodeKey("b", 1, 0, 16), is_leaf=False)
    with pytest.raises(InvalidRegion, match="inner nodes cannot carry segments"):
        MetadataNode(key=NodeKey("b", 1, 0, 16), is_leaf=False,
                     segments=(_segment(),), left=child, right=child)
    overlapping = (_segment(), LeafSegment(4, 2, ChunkKey("w", 1), 0, "p"))
    with pytest.raises(InvalidRegion, match="sorted and disjoint"):
        MetadataNode(key=_leaf_key(), is_leaf=True, segments=overlapping)
    with pytest.raises(InvalidRegion, match="exceeds the leaf range"):
        MetadataNode(key=_leaf_key(), is_leaf=True,
                     segments=(LeafSegment(8, 9, ChunkKey("w", 1), 0, "p"),))


def test_stripe_layout_rejects_nonpositive_parameters():
    with pytest.raises(InvalidRegion, match="stripe_size"):
        StripeLayout(0, 4)
    with pytest.raises(InvalidRegion, match="ost_count"):
        StripeLayout(64, 0)


# ----------------------------------------------------------------------
# stored derived attributes
# ----------------------------------------------------------------------
sizes = st.integers(min_value=0, max_value=1 << 40)


@settings(max_examples=200, deadline=None)
@given(sizes, sizes, sizes)
def test_region_end_is_offset_plus_size(offset, size, new_size):
    region = Region(offset, size)
    assert region.end == offset + size
    # replace() re-runs __post_init__, so the stored end follows the fields
    assert dataclasses.replace(region, size=new_size).end == offset + new_size


@settings(max_examples=200, deadline=None)
@given(sizes, st.integers(min_value=1, max_value=1 << 40), sizes,
       st.integers(min_value=1, max_value=1 << 40))
def test_leaf_segment_rel_end_is_rel_offset_plus_length(rel_offset, length,
                                                        chunk_offset, new_length):
    segment = LeafSegment(rel_offset, length, ChunkKey("w", 0), chunk_offset, "p")
    assert segment.rel_end == rel_offset + length
    assert dataclasses.replace(segment, length=new_length).rel_end \
        == rel_offset + new_length


def test_stored_ends_are_neither_init_arguments_nor_replaceable():
    with pytest.raises(TypeError):
        Region(0, 4, 4)  # type: ignore[call-arg]
    with pytest.raises(ValueError):
        dataclasses.replace(Region(0, 4), end=9)
    with pytest.raises(ValueError):
        dataclasses.replace(_segment(), rel_end=9)


def test_replace_rebuilds_a_node_through_its_checks():
    leaf = TYPES["MetadataNode:leaf"][0]()
    rebased = dataclasses.replace(leaf, base_version=None)
    assert rebased.base_version is None and rebased.segments == leaf.segments
    assert rebased != leaf
    with pytest.raises(InvalidRegion, match="leaf nodes cannot have children"):
        dataclasses.replace(leaf, left=ChildRef(1, 0, 8))
