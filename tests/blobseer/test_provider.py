"""Unit tests for data providers and the provider manager."""

import pytest

from repro.blobseer.chunk import ChunkKey, ChunkKeyFactory
from repro.blobseer.provider import DataProviderStore
from repro.blobseer.provider_manager import ProviderManager
from repro.errors import ChunkNotFound, ProviderUnavailable


class TestChunkKeys:
    def test_factory_generates_unique_keys(self):
        factory = ChunkKeyFactory("writer-a")
        keys = {factory.next_key() for _ in range(100)}
        assert len(keys) == 100

    def test_keys_from_different_writers_differ(self):
        assert ChunkKeyFactory("a").next_key() != ChunkKeyFactory("b").next_key()


class TestDataProviderStore:
    def test_put_and_get(self):
        store = DataProviderStore("p0")
        key = ChunkKey("w", 0)
        store.put_chunk(key, b"payload")
        assert store.get_chunk(key) == b"payload"
        assert store.has_chunk(key)
        assert store.chunk_count() == 1
        assert store.stored_bytes() == 7

    def test_missing_chunk_raises(self):
        with pytest.raises(ChunkNotFound):
            DataProviderStore("p0").get_chunk(ChunkKey("w", 0))

    def test_idempotent_reput(self):
        store = DataProviderStore("p0")
        key = ChunkKey("w", 0)
        store.put_chunk(key, b"data")
        store.put_chunk(key, b"data")
        assert store.chunk_count() == 1

    def test_reput_with_different_content_rejected(self):
        store = DataProviderStore("p0")
        key = ChunkKey("w", 0)
        store.put_chunk(key, b"data")
        with pytest.raises(ProviderUnavailable):
            store.put_chunk(key, b"DIFFERENT")

    def test_failed_provider_rejects_access(self):
        store = DataProviderStore("p0")
        key = ChunkKey("w", 0)
        store.put_chunk(key, b"data")
        store.fail()
        with pytest.raises(ProviderUnavailable):
            store.get_chunk(key)
        with pytest.raises(ProviderUnavailable):
            store.put_chunk(ChunkKey("w", 1), b"x")
        store.recover()
        assert store.get_chunk(key) == b"data"

    def test_counters(self):
        store = DataProviderStore("p0")
        key = ChunkKey("w", 0)
        store.put_chunk(key, b"1234")
        store.get_chunk(key)
        assert store.bytes_written == 4
        assert store.bytes_read == 4


def manager_of(*providers):
    manager = ProviderManager()
    for provider in providers:
        manager.register(provider)
    return manager


class TestRoundRobinAllocation:
    def test_round_robin_cycles(self):
        chosen = manager_of("a", "b", "c").allocate([1] * 7)
        assert chosen == ["a", "b", "c", "a", "b", "c", "a"]

    def test_round_robin_continues_across_calls(self):
        manager = manager_of("a", "b")
        manager.allocate([1])
        assert manager.allocate([1]) == ["b"]


class TestProviderManager:
    def test_allocation_updates_load(self):
        manager = manager_of("a", "b")
        chosen = manager.allocate([100, 200, 300])
        assert chosen == ["a", "b", "a"]
        assert manager.allocated_bytes["a"] == 400
        assert manager.allocated_bytes["b"] == 200

    def test_no_providers_raises(self):
        with pytest.raises(ProviderUnavailable):
            ProviderManager().allocate([1])

    def test_failed_provider_excluded(self):
        manager = manager_of("a", "b")
        manager.mark_failed("a")
        assert manager.alive_providers == ["b"]
        assert manager.allocate([1, 1]) == ["b", "b"]
        manager.mark_recovered("a")
        assert "a" in manager.alive_providers

    def test_recover_unknown_provider_raises(self):
        with pytest.raises(ProviderUnavailable):
            ProviderManager().mark_recovered("ghost")

    def test_load_imbalance_metric(self):
        manager = manager_of("a", "b")
        assert manager.load_imbalance() == 1.0
        manager.allocate([100, 100])
        assert manager.load_imbalance() == pytest.approx(1.0)
