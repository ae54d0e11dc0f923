"""Unit tests for the node-local shared metadata cache service.

The load-bearing property is the *admission gate*: the shared tier outlives
its clients, so it must never hold an entry whose version hint exceeds the
newest published version the node has observed — that is what keeps a
crashed co-tenant's pre-publication write-through state from poisoning every
later reader on the node (aborted tickets publish empty, so a stale entry
under that version would serve rolled-back nodes).

A bounded pool's eviction rule — keep the top tree levels, shed the deepest
entry, least recently used first — is pinned case by case and against a
reference model of the rule.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer.metadata.nodes import MetadataNode, NodeKey
from repro.blobseer.metadata.sharedcache import PIN_LEVELS, NodeCacheService
from repro.errors import StorageError


def make_node(version=1, offset=0, size=64, blob="b"):
    return MetadataNode(key=NodeKey(blob, version, offset, size),
                        is_leaf=True, segments=(), base_version=0)


class TestAdmissionGate:
    def test_unpublished_version_is_rejected(self):
        """RED-FIRST for the gate: an entry of a version nobody has seen
        published must never enter the shared pool."""
        service = NodeCacheService("n0")
        node = make_node(version=5)
        assert not service.publish("b", 0, 64, 5, node)
        assert len(service) == 0
        assert service.stats.unpublished_rejections == 1
        found, _ = service.get("b", 0, 64, 5)
        assert not found

    def test_published_version_is_admitted(self):
        service = NodeCacheService("n0")
        service.note_published("b", 5)
        node = make_node(version=5)
        assert service.publish("b", 0, 64, 5, node)
        found, cached = service.get("b", 0, 64, 5)
        assert found and cached is node

    def test_gate_opens_when_the_watermark_advances(self):
        service = NodeCacheService("n0")
        node = make_node(version=5)
        assert not service.publish("b", 0, 64, 5, node)
        service.note_published("b", 5)
        assert service.publish("b", 0, 64, 5, node)

    def test_negative_entries_pass_the_same_gate(self):
        service = NodeCacheService("n0")
        assert not service.publish("b", 0, 64, 3, None)
        service.note_published("b", 3)
        assert service.publish("b", 0, 64, 3, None)
        found, cached = service.get("b", 0, 64, 3)
        assert found and cached is None

    def test_watermarks_are_per_blob(self):
        service = NodeCacheService("n0")
        service.note_published("a", 9)
        assert not service.publish("b", 0, 64, 1, make_node())
        assert service.publish("a", 0, 64, 9, make_node(version=9, blob="a"))

    def test_watermark_never_regresses(self):
        service = NodeCacheService("n0")
        service.note_published("b", 7)
        service.note_published("b", 3)
        assert service.watermark("b") == 7


class TestLookupSemantics:
    def test_miss_then_hit_with_stats(self):
        service = NodeCacheService("n0")
        service.note_published("b", 1)
        found, _ = service.get("b", 0, 64, 1)
        assert not found
        service.publish("b", 0, 64, 1, make_node())
        found, _ = service.get("b", 0, 64, 1)
        assert found
        assert service.stats.hits == 1
        assert service.stats.misses == 1
        assert service.stats.hit_rate == 0.5

    def test_alias_under_exact_version(self):
        """A node fetched under a newer hint is also visible under its own
        version — co-located traversals of other snapshots share it."""
        service = NodeCacheService("n0")
        service.note_published("b", 9)
        node = make_node(version=4)
        service.publish("b", 0, 64, 9, node)
        found, cached = service.get("b", 0, 64, 4)
        assert found and cached is node

    def test_clear_keeps_watermarks_and_counters(self):
        service = NodeCacheService("n0")
        service.note_published("b", 2)
        service.publish("b", 0, 64, 2, make_node(version=2))
        service.clear()
        assert len(service) == 0
        assert service.watermark("b") == 2
        assert service.stats.insertions == 1


ROOT = 1024


def bounded(capacity, *spans, blob="b"):
    """A bounded pool holding one entry per ``(offset, size)`` of ``spans``,
    admitted in order (the first is least recently used)."""
    service = NodeCacheService("n0", capacity=capacity)
    service.note_published(blob, 1)
    for offset, size in spans:
        assert service.publish(blob, offset, size, 1,
                               make_node(offset=offset, size=size, blob=blob))
    return service


def resident(service, offset, size, blob="b"):
    return (blob, offset, size, 1) in service._entries


class TestEviction:
    def test_capacity_bound_evicts_one_entry(self):
        service = NodeCacheService("n0", capacity=2)
        service.note_published("b", 1)
        for offset in (0, 64, 128):
            service.publish("b", offset, 64, 1,
                            make_node(offset=offset))
        assert len(service) == 2
        assert service.stats.evictions == 1
        found, _ = service.get("b", 0, 64, 1)
        assert not found  # the LRU entry left

    def test_full_pool_keeps_the_root_resident(self):
        service = NodeCacheService("n0", capacity=2)
        service.note_published("b", 1)
        root = make_node(size=ROOT)
        service.publish("b", 0, ROOT, 1, root)
        for offset in (0, 64, 128, 192):
            service.publish("b", offset, 64, 1, make_node(offset=offset))
        found, cached = service.get("b", 0, ROOT, 1)
        assert found and cached is root

    def test_declined_admission_rolls_its_insertion_back(self):
        """When everything resident is pinned and the rule picks the
        newcomer itself, the decline must not leave a phantom insertion —
        insertions - evictions always reconciles with resident entries."""
        service = bounded(2, (0, ROOT), (0, ROOT // 2))
        # both residents are pinned top levels; a leaf newcomer is declined
        assert not service.publish("b", 0, 64, 1, make_node())
        assert service.stats.capacity_rejections == 1
        assert service.stats.evictions == 0
        assert service.stats.insertions == len(service) == 2

    def test_bad_capacity_rejected(self):
        with pytest.raises(StorageError):
            NodeCacheService("n0", capacity=0)

    def test_policy_argument_is_rejected(self):
        """The eviction rule is not a choice: an old caller naming a
        policy fails loudly instead of being silently ignored."""
        with pytest.raises(TypeError):
            NodeCacheService("n0", capacity=8, policy="lru")


class TestLevelRule:
    """The top :data:`PIN_LEVELS` tree levels stay; the deepest entry goes."""

    def test_root_span_is_learned_and_pins_the_top_levels(self):
        assert PIN_LEVELS == 3
        service = bounded(8, (0, ROOT))
        assert service.pinned(("b", 0, ROOT, 1))
        assert service.pinned(("b", 0, ROOT // 2, 1))
        assert service.pinned(("b", 0, ROOT // 4, 1))
        assert not service.pinned(("b", 0, ROOT // 8, 1))

    def test_victims_are_deepest_first(self):
        service = bounded(4, (0, ROOT), (0, ROOT // 8), (0, ROOT // 32),
                          (0, ROOT // 16))
        service.publish("b", 128, ROOT // 8, 1,
                        make_node(offset=128, size=ROOT // 8))
        assert not resident(service, 0, ROOT // 32)
        assert resident(service, 0, ROOT // 16)
        assert resident(service, 0, ROOT // 8)

    def test_pinned_entries_survive_unpinned_ones(self):
        service = bounded(4, (0, ROOT), (0, ROOT // 2), (0, ROOT // 4),
                          (0, ROOT // 8))
        # the root is the least recently used, but pinned: the one
        # unpinned entry leaves instead
        service.publish("b", 512, ROOT // 2, 1,
                        make_node(offset=512, size=ROOT // 2))
        assert not resident(service, 0, ROOT // 8)
        assert all(resident(service, 0, size)
                   for size in (ROOT, ROOT // 2, ROOT // 4))

    def test_lru_breaks_ties_within_a_level(self):
        service = bounded(3, (0, ROOT), (0, 128), (128, 128))
        service.get("b", 0, 128, 1)
        service.publish("b", 256, 128, 1, make_node(offset=256, size=128))
        assert not resident(service, 128, 128)
        assert resident(service, 0, 128) and resident(service, 256, 128)

    def test_falls_back_to_lru_when_everything_is_pinned(self):
        service = bounded(2, (0, ROOT), (0, ROOT // 2))
        # all three entries are pinned: shed the least recently used one
        # rather than refuse to make room
        assert service.publish("b", 512, ROOT // 2, 1,
                               make_node(offset=512, size=ROOT // 2))
        assert not resident(service, 0, ROOT)
        assert service.stats.evictions == 1

    def test_per_blob_root_spans(self):
        service = bounded(8, (0, ROOT), blob="big")
        service.note_published("small", 1)
        service.publish("small", 0, 64, 1, make_node(size=64, blob="small"))
        assert service.pinned(("big", 0, ROOT, 1))
        # 64 is "small"'s root (the largest span seen for that BLOB)
        assert service.pinned(("small", 0, 64, 1))
        assert not service.pinned(("big", 0, 64, 1))

    def test_root_span_is_the_largest_span_seen(self):
        service = bounded(8, (0, 64))
        assert service.pinned(("b", 0, 64, 1))
        service.publish("b", 0, ROOT, 1, make_node(size=ROOT))
        assert not service.pinned(("b", 0, 64, 1))


class TestRecency:
    """Least recently used first among a level's unpinned entries."""

    LEAVES = ((0, ROOT), (0, 64), (64, 64))

    def test_victim_is_least_recently_used(self):
        service = bounded(3, *self.LEAVES)
        service.publish("b", 128, 64, 1, make_node(offset=128))
        assert not resident(service, 0, 64)
        assert resident(service, 64, 64) and resident(service, 128, 64)

    def test_hit_refreshes_recency(self):
        service = bounded(3, *self.LEAVES)
        service.get("b", 0, 64, 1)
        service.publish("b", 128, 64, 1, make_node(offset=128))
        assert resident(service, 0, 64)
        assert not resident(service, 64, 64)

    def test_evicted_entry_is_forgotten(self):
        service = bounded(3, *self.LEAVES)
        service.publish("b", 128, 64, 1, make_node(offset=128))
        service.publish("b", 192, 64, 1, make_node(offset=192))
        assert service.stats.evictions == 2
        assert sorted(service._entries) == [
            ("b", 0, ROOT, 1), ("b", 128, 64, 1), ("b", 192, 64, 1)]

    def test_reinsert_refreshes_recency(self):
        service = bounded(3, *self.LEAVES)
        service.publish("b", 0, 64, 1, make_node())
        service.publish("b", 128, 64, 1, make_node(offset=128))
        assert resident(service, 0, 64)
        assert not resident(service, 64, 64)

    def test_peek_refreshes_recency_like_a_hit(self):
        service = bounded(3, *self.LEAVES)
        hits = service.stats.hits
        assert service.peek("b", 0, 64, 1)[0]
        service.publish("b", 128, 64, 1, make_node(offset=128))
        assert resident(service, 0, 64)
        assert not resident(service, 64, 64)
        assert service.stats.hits == hits  # stat-free all the same

    def test_unbounded_pool_keeps_no_recency_order(self):
        service = NodeCacheService("n0")
        service.note_published("b", 1)
        for offset, size in self.LEAVES:
            service.publish("b", offset, size, 1,
                            make_node(offset=offset, size=size))
        service.get("b", 0, 64, 1)
        service.peek("b", 0, ROOT, 1)
        assert list(service._entries) == [("b", offset, size, 1)
                                          for offset, size in self.LEAVES]
        assert service._root_span == {}
        assert service.stats.evictions == 0


#: the eviction rule as a reference model, over a list in recency order
def model_victim(order, root_span):
    unpinned = [key for key in order
                if key[2] << (PIN_LEVELS - 1) < root_span[key[0]]]
    if not unpinned:
        return order[0]
    deepest = min(key[2] for key in unpinned)
    return next(key for key in unpinned if key[2] == deepest)


def model_publish(model, key, capacity):
    """Mirror of one admission; returns whether it was admitted."""
    order, root_span, stats = model
    if key in order:
        order.remove(key)
        order.append(key)
        return True
    order.append(key)
    stats["insertions"] += 1
    root_span[key[0]] = max(root_span.get(key[0], 0), key[2])
    if len(order) <= capacity:
        return True
    victim = model_victim(order, root_span)
    order.remove(victim)
    if victim == key:
        stats["insertions"] -= 1
        stats["capacity_rejections"] += 1
        return False
    stats["evictions"] += 1
    return True


#: lookup keys of a 1024-byte tree, all levels down to 64-byte leaves
TREE_KEYS = [(blob, offset, size, 1) for blob in ("a", "b")
             for size in (1024, 512, 256, 128, 64)
             for offset in range(0, 1024, size)]


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 16),
       operations=st.lists(st.tuples(st.sampled_from(["insert", "get",
                                                      "peek"]),
                                     st.sampled_from(TREE_KEYS)),
                           min_size=20, max_size=120))
def test_bounded_pool_matches_the_reference_model(capacity, operations):
    service = NodeCacheService("n0", capacity=capacity)
    for blob in ("a", "b"):
        service.note_published(blob, 1)
    model = ([], {}, {"insertions": 0, "evictions": 0,
                      "capacity_rejections": 0, "hits": 0, "lookups": 0})
    order, _root_span, stats = model
    for operation, key in operations:
        if operation == "insert":
            assert service.publish(*key, make_node(
                offset=key[1], size=key[2], blob=key[0])) \
                == model_publish(model, key, capacity)
        else:
            found = key in order
            if found:
                order.remove(key)
                order.append(key)
            if operation == "get":
                stats["lookups"] += 1
                stats["hits"] += found
                assert service.get(*key)[0] == found
            else:
                assert service.peek(*key)[0] == found
        assert list(service._entries) == order
    for name, value in stats.items():
        assert getattr(service.stats, name) == value, name


class TestAttachment:
    def test_attach_detach_bookkeeping(self):
        service = NodeCacheService("n0")
        service.attach("rank0")
        service.attach("rank1")
        service.detach("rank0")
        assert service.attached == ["rank1"]
        service.detach("rank0")  # idempotent
        assert service.attached == ["rank1"]

    def test_entries_survive_detach(self):
        service = NodeCacheService("n0")
        service.attach("rank0")
        service.note_published("b", 1)
        service.publish("b", 0, 64, 1, make_node())
        service.detach("rank0")
        found, _ = service.get("b", 0, 64, 1)
        assert found

    def test_reattach_is_idempotent(self):
        """RED-FIRST for the phantom-attachment bug: a client re-attaching
        (e.g. a retried constructor path) must not hold two slots, or a
        single detach leaves a phantom tenant behind forever."""
        service = NodeCacheService("n0")
        service.attach("rank0")
        service.attach("rank0")
        assert service.attached == ["rank0"]
        service.detach("rank0")
        assert service.attached == []

    def test_deployment_stats_assert_no_duplicate_attachments(self):
        """The aggregate stats walk doubles as the invariant's tripwire:
        a duplicate smuggled past attach() must raise, not be summed."""
        from repro.blobseer.deployment import BlobSeerDeployment
        from repro.cluster import Cluster, ClusterConfig

        cluster = Cluster(config=ClusterConfig(shared_metadata_cache=True))
        deployment = BlobSeerDeployment(cluster, num_providers=1,
                                        num_metadata_providers=1,
                                        chunk_size=4096)
        service = deployment.node_cache(cluster.add_node("cn0"))
        assert deployment.shared_cache_stats()["attached_clients"] == 0
        service.attached.append("ghost")  # forced corruption
        service.attached.append("ghost")
        with pytest.raises(StorageError):
            deployment.shared_cache_stats()
