"""Client-side cache of versioned metadata nodes.

Metadata nodes are immutable and lookups are only ever made for
*published* snapshots, so the result of an at-or-before lookup
``(blob, offset, size, version) -> node-or-None`` can never change once it
has been observed: publication of snapshot ``v`` requires every write with
a ticket ``<= v`` to have stored its metadata first, and every base version
a leaf of a published snapshot names is ``<= v``.  That makes cached
entries valid forever — including negative entries (``None`` = "leaf never
written as of that version"), which spare the client a round-trip for
zero-filled holes.

One map backs the cache, keyed by the full lookup ``(blob, offset, size,
version)``.  A read looks its leaves up at the read version, so an entry
answers reads of that version only; a node fetched under version ``h`` is
additionally inserted under its exact version ``(blob, offset, size,
node.version)``, which is what a base-chain link (and a read of exactly
that snapshot) asks.  Alias entries are ordinary entries: under a bounded
cache each occupies one slot and is evicted on its own LRU schedule.

Eviction is LRU over that map (entries refresh their position on every hit
and overwrite) and is off by default: a metadata node costs a few hundred
bytes and the simulated workloads touch bounded trees.  ``capacity`` bounds
the number of entries when set.  A compute node's shared pool
(:class:`~repro.blobseer.metadata.sharedcache.NodeCacheService`) is this
same cache behind a publication gate.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.blobseer.metadata.nodes import MetadataNode
from repro.errors import StorageError

#: cache key of one at-or-before lookup
HintKey = Tuple[str, int, int, int]

#: sentinel distinguishing "not cached" from a cached negative (None) result
_ABSENT = object()


class CacheStats:
    """The counters of one metadata tier, as one of its users sees it.

    Every tier counts the ``lookups`` it was asked and the ``hits`` it
    answered; ``extra`` names the counters only some tiers keep
    (insertions, gate rejections, RPCs, ...), all starting at zero.
    """

    def __init__(self, **extra: int):
        self.lookups = 0
        self.hits = 0
        vars(self).update(extra)

    @property
    def misses(self) -> int:
        """Lookups the tier could not answer."""
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered by the tier (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict form for JSON benchmark artifacts."""
        return {**vars(self), "misses": self.misses,
                "hit_rate": self.hit_rate}


class MetadataNodeCache:
    """LRU cache of resolved metadata lookups (see module docstring).

    ``get`` returns ``(found, node_or_none)`` so a cached negative result is
    distinguishable from a cache miss.  ``capacity=None`` disables eviction.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise StorageError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats(insertions=0, evictions=0)
        # hint map: insertion order doubles as LRU order (move-to-end on hit)
        self._resolved: Dict[HintKey, Optional[MetadataNode]] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._resolved)

    def __contains__(self, key: HintKey) -> bool:
        """Whether ``(blob_id, offset, size, hint)`` is held; counts
        nothing and refreshes nothing."""
        return key in self._resolved

    def get(self, blob_id: str, offset: int, size: int,
            hint: int) -> Tuple[bool, Optional[MetadataNode]]:
        """Cached result of ``get_at_or_before(blob_id, offset, size, hint)``.

        Returns ``(True, node_or_None)`` on a hit, ``(False, None)`` on a
        miss; counts one hit or miss per call.
        """
        key = (blob_id, offset, size, hint)
        self.stats.lookups += 1
        value = self._resolved.get(key, _ABSENT)
        if value is _ABSENT:
            return False, None
        self.stats.hits += 1
        if self.capacity is not None:
            # refresh LRU position
            del self._resolved[key]
            self._resolved[key] = value
        return True, value

    def put(self, blob_id: str, offset: int, size: int, hint: int,
            node: Optional[MetadataNode]) -> None:
        """Record one resolved lookup (``node=None`` caches a negative)."""
        self.put_many(blob_id, (((offset, size, hint), node),))

    def put_many(self, blob_id: str, entries) -> None:
        """Record ``((offset, size, hint), node-or-None)`` pairs, in order.

        The cache's one insertion routine: an overwrite also refreshes the
        entry's LRU position, a fresh key may evict the oldest entry.
        """
        resolved = self._resolved
        capacity = self.capacity
        for (offset, size, hint), node in entries:
            keys = [(blob_id, offset, size, hint)]
            if node is not None and node.key.version != hint:
                # alias under the node's exact version: any future hint that
                # resolves through this version hits without a round-trip
                keys.append((blob_id, offset, size, node.key.version))
            for key in keys:
                fresh = resolved.pop(key, _ABSENT) is _ABSENT
                resolved[key] = node
                if fresh:
                    self.stats.insertions += 1
                    if capacity is not None and len(resolved) > capacity:
                        del resolved[next(iter(resolved))]
                        self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._resolved.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} entries={len(self._resolved)} "
                f"hits={self.stats.hits} misses={self.stats.misses}>")
