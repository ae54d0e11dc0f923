"""Unit tests for the client-side metadata node cache."""

import pytest

from repro.blobseer.chunk import ChunkKey
from repro.blobseer.metadata.cache import MetadataNodeCache
from repro.blobseer.metadata.nodes import LeafSegment, MetadataNode, NodeKey
from repro.errors import StorageError


def leaf(version, offset=0, size=64):
    segment = LeafSegment(0, 8, ChunkKey("w", version), 0, "p0")
    return MetadataNode(NodeKey("b", version, offset, size), True,
                        segments=(segment,), base_version=version - 1)


class TestMetadataNodeCache:
    def test_miss_then_hit(self):
        cache = MetadataNodeCache()
        found, node = cache.get("b", 0, 64, 3)
        assert (found, node) == (False, None)
        stored = leaf(3)
        cache.put("b", 0, 64, 3, stored)
        found, node = cache.get("b", 0, 64, 3)
        assert found and node is stored
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_negative_result_is_cached(self):
        cache = MetadataNodeCache()
        cache.put("b", 0, 64, 0, None)
        found, node = cache.get("b", 0, 64, 0)
        assert found and node is None
        assert cache.stats.hits == 1

    def test_hint_resolution_aliases_exact_version(self):
        cache = MetadataNodeCache()
        stored = leaf(2)
        # a lookup with hint 7 resolved to the version-2 node ...
        cache.put("b", 0, 64, 7, stored)
        # ... so a later traversal hinting exactly at version 2 also hits
        found, node = cache.get("b", 0, 64, 2)
        assert found and node is stored
        # but an intermediate hint that was never resolved stays a miss
        assert cache.get("b", 0, 64, 5) == (False, None)

    def test_distinct_ranges_and_blobs_do_not_collide(self):
        cache = MetadataNodeCache()
        cache.put("b", 0, 64, 1, leaf(1))
        assert cache.get("b", 64, 64, 1) == (False, None)
        assert cache.get("other", 0, 64, 1) == (False, None)

    def test_lru_eviction_respects_capacity(self):
        cache = MetadataNodeCache(capacity=2)
        cache.put("b", 0, 64, 1, None)
        cache.put("b", 64, 64, 1, None)
        # touch the first entry so the second becomes least recently used
        assert cache.get("b", 0, 64, 1)[0]
        cache.put("b", 128, 64, 1, None)
        assert cache.get("b", 0, 64, 1)[0]          # survivor (recently used)
        assert not cache.get("b", 64, 64, 1)[0]     # evicted
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_unbounded_by_default(self):
        cache = MetadataNodeCache()
        for offset in range(0, 100 * 64, 64):
            cache.put("b", offset, 64, 1, None)
        assert len(cache) == 100
        assert cache.stats.evictions == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(StorageError):
            MetadataNodeCache(capacity=0)

    def test_clear_keeps_counters(self):
        cache = MetadataNodeCache()
        cache.put("b", 0, 64, 1, None)
        cache.get("b", 0, 64, 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
        assert cache.get("b", 0, 64, 1) == (False, None)

    def test_snapshot_dict(self):
        cache = MetadataNodeCache()
        cache.put("b", 0, 64, 1, None)
        cache.get("b", 0, 64, 1)
        cache.get("b", 64, 64, 1)
        snap = cache.stats.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5


class TestBulkInsert:
    """``put_many`` is the one insertion routine; ``put`` is its one-entry
    call, so both spellings must leave the cache in the same state."""

    #: fresh keys, aliases (hint != version), a negative, and overwrites
    #: of an older entry (the LRU refresh) — 8 distinct keys in all
    ENTRIES = [
        ((0, 64, 3), leaf(3)),
        ((64, 64, 7), leaf(2, offset=64)),      # + alias under version 2
        ((128, 64, 1), None),
        ((0, 64, 3), leaf(3)),                  # overwrite: refresh only
        ((192, 64, 9), leaf(4, offset=192)),    # + alias under version 4
        ((64, 64, 2), leaf(2, offset=64)),      # overwrites the alias
        ((256, 64, 5), leaf(5, offset=256)),
        ((320, 64, 6), None),
    ]

    @pytest.mark.parametrize("capacity,insertions,evictions", [
        (None, 8, 0),
        # the version-2 alias is evicted before its overwrite: fresh again
        (4, 9, 5),
    ])
    def test_bulk_equals_single_puts(self, capacity, insertions, evictions):
        bulk = MetadataNodeCache(capacity=capacity)
        bulk.put_many("b", self.ENTRIES)
        single = MetadataNodeCache(capacity=capacity)
        for (offset, size, hint), node in self.ENTRIES:
            single.put("b", offset, size, hint, node)
        assert list(bulk._resolved.items()) == list(single._resolved.items())
        assert bulk.stats.snapshot() == single.stats.snapshot()
        assert bulk.stats.insertions == insertions
        assert bulk.stats.evictions == evictions

    def test_bounded_bulk_keeps_the_most_recent_keys(self):
        cache = MetadataNodeCache(capacity=4)
        cache.put_many("b", self.ENTRIES)
        assert list(cache._resolved) == [
            ("b", 192, 64, 4), ("b", 64, 64, 2),
            ("b", 256, 64, 5), ("b", 320, 64, 6)]

    def test_bulk_accepts_a_dict_items_view(self):
        cache = MetadataNodeCache()
        cache.put_many("b", dict(self.ENTRIES[:3]).items())
        assert len(cache) == 4
