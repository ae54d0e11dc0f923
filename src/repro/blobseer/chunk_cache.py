"""The writer's cache of the chunks it uploaded.

A chunk is immutable and named by its writer (:mod:`repro.blobseer.chunk`),
so the payload a client just handed a data provider is that chunk's content
for as long as any snapshot references it: the writer's copy cannot go
stale, needs no invalidation and no lease — the property a ROMIO-on-locks
client lacks, whose cached page dies with its byte-range lock.  The commit
engine's ``stage`` keeps each uploaded payload here — a reference to the
very object the provider stores (the writer's ``bytes`` or a read-only view
of them), never a copy — and the client's read path takes the extents of
held chunks out of it instead of asking the providers (a checkpoint's
restart read by the ranks that wrote it).  An extent is the held object
when it is the whole chunk, else a view of it: the reader copies each byte
once, into the ``bytes`` it returns.

Entries come only from the owning client's *successful* uploads and leave
in two ways: least recently used first once the payload bytes held pass
``capacity_bytes``, or dropped when the commit that uploaded them is
aborted and no snapshot will reference them.

Left out on purpose: fill-on-read, and a node-shared or cooperative chunk
tier, though ``shared_scan``'s readers re-read the seeder's dump: ROADMAP.md
parks it as an additive subsystem, and the model has no local-copy cost yet.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.blobseer.chunk import ChunkKey
from repro.blobseer.metadata.cache import CacheStats
from repro.core.listio import Payload

#: payload bytes one client keeps: ROMIO's default ``cb_buffer_size``
CHUNK_CACHE_BYTES = 16 * 1024 * 1024


class ChunkCache:
    """Byte-bounded LRU map ``ChunkKey -> payload`` (see module docstring)."""

    def __init__(self, capacity_bytes: int = CHUNK_CACHE_BYTES):
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        #: ``lookups`` / ``hits`` count read extents, ``bytes_served`` their
        #: bytes, ``evictions`` the chunks the bound pushed out
        self.stats = CacheStats(bytes_served=0, evictions=0)
        #: payload bytes held right now
        self.resident_bytes = 0
        # insertion order doubles as LRU order (move-to-end on hit)
        self._chunks: Dict[ChunkKey, Payload] = {}

    def __len__(self) -> int:
        return len(self._chunks)

    def put(self, key: ChunkKey, data: Payload) -> None:
        """Keep a newly uploaded chunk (a writer never reuses a key),
        evicting the least recently used ones the bound no longer has room
        for — the new one included, if it alone exceeds the bound."""
        chunks = self._chunks
        chunks[key] = data
        self.resident_bytes += len(data)
        while self.resident_bytes > self.capacity_bytes:
            self.resident_bytes -= len(chunks.pop(next(iter(chunks))))
            self.stats.evictions += 1

    def read(self, key: ChunkKey, offset: int,
             length: int) -> Optional[Payload]:
        """``length`` bytes at ``offset`` of a held chunk — the held object
        for the whole chunk, a read-only view of it otherwise — else
        ``None``; counts one lookup."""
        self.stats.lookups += 1
        chunks = self._chunks
        data = chunks.get(key)
        if data is None:
            return None
        self.stats.hits += 1
        self.stats.bytes_served += length
        # refresh LRU position
        del chunks[key]
        chunks[key] = data
        if length == len(data):
            return data
        return memoryview(data)[offset:offset + length]

    def discard(self, key: ChunkKey) -> None:
        """Drop a chunk if it is held (not an eviction)."""
        data = self._chunks.pop(key, None)
        if data is not None:
            self.resident_bytes -= len(data)
