"""Unit tests for the node-local shared metadata cache service.

The load-bearing property is the *admission gate*: the shared tier outlives
its clients, so it must never hold an entry whose version hint exceeds the
newest published version the node has observed — that is what keeps a
crashed co-tenant's pre-publication write-through state from poisoning every
later reader on the node (aborted tickets publish empty, so a stale entry
under that version would serve rolled-back nodes).

A bounded pool is plain LRU, pinned case by case and against a reference
model — the same model the private cache's LRU, which the pool is, must
match.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer.metadata.cache import MetadataNodeCache
from repro.blobseer.metadata.nodes import MetadataNode, NodeKey
from repro.blobseer.metadata.sharedcache import NodeCacheService
from repro.blobseer.metadata.tiers import MetadataTierChain
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
        assert 2 * service.stats.hits == service.stats.lookups > 0

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
    return (blob, offset, size, 1) in service._resolved


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

    def test_full_pool_sheds_the_root_like_any_entry(self):
        """No level is kept over another: reads look leaves up only, so
        an interior entry is as evictable as a leaf."""
        service = bounded(2, (0, ROOT), (0, 64))
        assert service.publish("b", 64, 64, 1, make_node(offset=64))
        assert not resident(service, 0, ROOT)
        assert resident(service, 0, 64) and resident(service, 64, 64)
        assert service.stats.insertions - service.stats.evictions \
            == len(service) == 2

    def test_an_alias_takes_its_own_slot(self):
        """A node fetched under a newer hint is kept under its exact
        version too; in a one-entry pool the alias, admitted last, is the
        one that stays."""
        service = NodeCacheService("n0", capacity=1)
        service.note_published("b", 9)
        assert service.publish("b", 0, 64, 9, make_node(version=4))
        assert list(service._resolved) == [("b", 0, 64, 4)]
        assert (service.stats.insertions, service.stats.evictions) == (2, 1)

    def test_eviction_crosses_blobs(self):
        """One pool per node, one recency order: a BLOB's entries are no
        safer than another's."""
        service = NodeCacheService("n0", capacity=2)
        for blob in ("a", "b"):
            service.note_published(blob, 1)
        service.publish("a", 0, 64, 1, make_node(blob="a"))
        service.publish("b", 0, 64, 1, make_node(blob="b"))
        service.publish("b", 64, 64, 1, make_node(offset=64, blob="b"))
        assert sorted(service._resolved) == [("b", 0, 64, 1), ("b", 64, 64, 1)]

    def test_an_overwrite_is_no_insertion(self):
        service = bounded(2, (0, 64), (64, 64))
        service.publish("b", 0, 64, 1, make_node())
        assert (service.stats.insertions, service.stats.evictions) == (2, 0)
        assert list(service._resolved) == [("b", 64, 64, 1), ("b", 0, 64, 1)]

    def test_a_rejected_entry_leaves_the_pool_as_it_was(self):
        service = bounded(2, (0, 64), (64, 64))
        assert not service.publish("b", 128, 64, 5, make_node(offset=128))
        assert list(service._resolved) == [("b", 0, 64, 1), ("b", 64, 64, 1)]
        assert service.stats.evictions == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(StorageError):
            NodeCacheService("n0", capacity=0)

    def test_policy_argument_is_rejected(self):
        """The eviction rule is not a choice: an old caller naming a
        policy fails loudly instead of being silently ignored."""
        with pytest.raises(TypeError):
            NodeCacheService("n0", capacity=8, policy="lru")


class TestRecency:
    """Least recently used first."""

    LEAVES = ((0, 64), (64, 64))

    def test_victim_is_least_recently_used(self):
        service = bounded(2, *self.LEAVES)
        service.publish("b", 128, 64, 1, make_node(offset=128))
        assert not resident(service, 0, 64)
        assert resident(service, 64, 64) and resident(service, 128, 64)

    def test_hit_refreshes_recency(self):
        service = bounded(2, *self.LEAVES)
        service.get("b", 0, 64, 1)
        service.publish("b", 128, 64, 1, make_node(offset=128))
        assert resident(service, 0, 64)
        assert not resident(service, 64, 64)

    def test_evicted_entry_is_forgotten(self):
        service = bounded(2, *self.LEAVES)
        service.publish("b", 128, 64, 1, make_node(offset=128))
        service.publish("b", 192, 64, 1, make_node(offset=192))
        assert service.stats.evictions == 2
        assert sorted(service._resolved) == [
            ("b", 128, 64, 1), ("b", 192, 64, 1)]

    def test_reinsert_refreshes_recency(self):
        service = bounded(2, *self.LEAVES)
        service.publish("b", 0, 64, 1, make_node())
        service.publish("b", 128, 64, 1, make_node(offset=128))
        assert resident(service, 0, 64)
        assert not resident(service, 64, 64)

    def test_unbounded_pool_keeps_no_recency_order(self):
        service = NodeCacheService("n0")
        service.note_published("b", 1)
        for offset, size in self.LEAVES:
            service.publish("b", offset, size, 1,
                            make_node(offset=offset, size=size))
        service.get("b", 0, 64, 1)
        assert list(service._resolved) == [("b", offset, size, 1)
                                          for offset, size in self.LEAVES]
        assert service.stats.evictions == 0


def model_publish(model, key, capacity):
    """Mirror of one admission into a plain LRU list."""
    order, stats = model
    if key in order:
        order.remove(key)
        order.append(key)
        return
    order.append(key)
    stats["insertions"] += 1
    if len(order) > capacity:
        order.pop(0)
        stats["evictions"] += 1


#: lookup keys of a 1024-byte tree, all levels down to 64-byte leaves
TREE_KEYS = [(blob, offset, size, 1) for blob in ("a", "b")
             for size in (1024, 512, 256, 128, 64)
             for offset in range(0, 1024, size)]


def private_cache(capacity):
    """The client's private cache, filled through ``put``."""
    cache = MetadataNodeCache(capacity=capacity)

    def insert(*entry):
        cache.put(*entry)
        return True
    return cache, insert


def node_pool(capacity):
    """A node pool past its gate, filled through ``publish``."""
    service = NodeCacheService("n0", capacity=capacity)
    for blob in ("a", "b"):
        service.note_published(blob, 1)
    return service, service.publish


@pytest.mark.parametrize("make_cache", [private_cache, node_pool])
@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 16),
       operations=st.lists(st.tuples(st.sampled_from(["insert", "get"]),
                                     st.sampled_from(TREE_KEYS)),
                           min_size=20, max_size=120))
def test_bounded_pool_matches_the_reference_model(make_cache, capacity,
                                                  operations):
    service, insert = make_cache(capacity)
    model = ([], {"insertions": 0, "evictions": 0, "hits": 0, "lookups": 0})
    order, stats = model
    for operation, key in operations:
        if operation == "insert":
            assert insert(*key, make_node(
                offset=key[1], size=key[2], blob=key[0]))
            model_publish(model, key, capacity)
        else:
            found = key in order
            if found:
                order.remove(key)
                order.append(key)
            stats["lookups"] += 1
            stats["hits"] += found
            assert service.get(*key)[0] == found
        assert list(service._resolved) == order
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
        """The shared-tier collector doubles as the invariant's tripwire:
        a duplicate smuggled past attach() is a reported problem, so every
        ``assert_identities`` (and ``deployment.stats()``) raises."""
        from repro.blobseer.deployment import BlobSeerDeployment
        from repro.cluster import Cluster, ClusterConfig
        from repro.obs.registry import IdentityViolation, MetricsRegistry
        from repro.obs.views import collect_shared_cache

        cluster = Cluster(config=ClusterConfig(shared_metadata_cache=True))
        deployment = BlobSeerDeployment(cluster, num_providers=1,
                                        num_metadata_providers=1,
                                        chunk_size=4096)
        service = deployment.node_cache(cluster.add_node("cn0"))
        assert deployment.stats()["shared_cache"]["attached_clients"] == 0
        service.attached.append("ghost")  # forced corruption
        service.attached.append("ghost")
        registry = MetricsRegistry()
        collect_shared_cache(registry, deployment)
        problems = registry.check_identities()
        assert len(problems) == 1
        assert problems[0].startswith("cache.shared.attachments: ")
        assert "cn0" in problems[0] and "ghost" in problems[0]
        with pytest.raises(IdentityViolation, match="duplicate attachments"):
            registry.assert_identities()
        with pytest.raises(IdentityViolation):
            deployment.stats()


# ----------------------------------------------------------------------
# promotion of pool hits into the private cache
# ----------------------------------------------------------------------
class ShardlessChain(MetadataTierChain):
    """A chain whose shards answer every lookup "never written" at once."""

    def fetch(self, blob_id, requests, wanted=None):
        return {request: None for request in requests}
        yield  # a generator like the shards' fetch; it never waits


class PromoteEachHit(ShardlessChain):
    """The reference: every pool hit promoted on its own, at once."""

    def resolve(self, blob_id, requests, wanted=None):
        private, pool = self.private, self.pool
        results, pending = {}, []
        for request in requests:
            found, node = private.get(blob_id, *request)
            if found:
                results[request] = node
                continue
            self.pool_stats.lookups += 1
            found, node = pool.get(blob_id, *request)
            if found:
                self.pool_stats.hits += 1
                private.put_many(blob_id, ((request, node),))
                results[request] = node
                continue
            pending.append(request)
        if pending:
            fetched = yield from self.fetch(blob_id, pending)
            self.admit(blob_id, [(request, fetched[request])
                                 for request in pending])
            results.update(fetched)
        return results


def resolved(chain, requests):
    level = chain.resolve("b", requests)
    try:
        next(level)
    except StopIteration as done:
        return done.value
    raise AssertionError("a shardless chain never waits")


#: a round's lookups: distinct leaves, as a read walk asks them
rounds = st.lists(
    st.lists(st.tuples(st.integers(0, 11), st.integers(1, 3)),
             min_size=1, max_size=8, unique_by=lambda pair: pair[0]),
    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(capacity=st.one_of(st.none(), st.integers(1, 8)),
       pooled=st.lists(st.tuples(st.integers(0, 11), st.integers(1, 3),
                                 st.integers(1, 3)), max_size=30),
       held=st.lists(st.tuples(st.integers(0, 11), st.integers(1, 3)),
                     max_size=8),
       walk=rounds)
def test_pool_hits_promoted_per_run_leave_the_private_cache_as_one_by_one(
        capacity, pooled, held, walk):
    """Whatever the pool and the private cache hold, a walk resolved with
    one ``put_many`` per run of pool hits leaves the private cache — its
    entries in LRU order and its counters — and every answer as promoting
    each hit on its own would."""
    chains = []
    for chain_class in (ShardlessChain, PromoteEachHit):
        pool = NodeCacheService("n0")
        pool.note_published("b", 3)
        for leaf, hint, version in pooled:
            pool.publish("b", leaf * 64, 64, hint, make_node(
                version=min(version, hint), offset=leaf * 64))
        private = MetadataNodeCache(capacity=capacity)
        for leaf, hint in held:
            private.put("b", leaf * 64, 64, hint,
                        make_node(version=hint, offset=leaf * 64))
        chains.append(chain_class(None, "c", private=private, pool=pool))
    batched, one_by_one = chains
    for leaves in walk:
        requests = [(leaf * 64, 64, hint) for leaf, hint in leaves]
        assert resolved(batched, requests) == resolved(one_by_one, requests)
        assert list(batched.private._resolved) \
            == list(one_by_one.private._resolved)
        assert vars(batched.private.stats) == vars(one_by_one.private.stats)
        assert vars(batched.pool_stats) == vars(one_by_one.pool_stats)
