"""Versioned segment-tree metadata with shadowing (copy-on-write).

Each published snapshot of a BLOB is described by a binary segment tree whose
leaves cover one chunk each.  Nodes are immutable and identified by
``(blob id, version, offset, size)``.  A write for snapshot version ``v``
creates *only* the nodes on the paths from the root to the leaves it touches;
every untouched subtree is *shadowed* — referenced from the new nodes by a
``(version hint, offset, size)`` child reference that resolves to the newest
node of that range with version <= hint.  Reads therefore see a frozen,
consistent snapshot no matter what concurrent writers are doing, which is the
versioning principle the paper relies on to eliminate locking.

* :mod:`repro.blobseer.metadata.nodes` — node / segment value types;
* :mod:`repro.blobseer.metadata.segment_tree` — pure functions building the
  new nodes of a (possibly non-contiguous) write and planning versioned reads
  (from the snapshot's leaves and their base chains);
* :mod:`repro.blobseer.metadata.store` — the metadata node store with
  at-or-before version resolution, plus hash partitioning over several
  metadata providers;
* :mod:`repro.blobseer.metadata.provider` — the metadata provider service;
* :mod:`repro.blobseer.metadata.tiers` — the metadata tier chain a client
  resolves its reads through (its private cache, its node's pool, then the
  shards), and the lookup partition identity over those three;
* :mod:`repro.blobseer.metadata.cache` — the private LRU cache of immutable
  nodes and resolved version hints (the chain's first tier);
* :mod:`repro.blobseer.metadata.sharedcache` — the node-local *shared* pool
  co-located clients attach to: the same cache, admission gated on the
  published watermark.
"""

from repro.blobseer.metadata.cache import CacheStats, MetadataNodeCache
from repro.blobseer.metadata.sharedcache import NodeCacheService
from repro.blobseer.metadata.nodes import ChildRef, LeafSegment, MetadataNode, NodeKey
from repro.blobseer.metadata.store import MetadataStore, PartitionedMetadataStore
from repro.blobseer.metadata.provider import SimMetadataProvider
from repro.blobseer.metadata.segment_tree import (
    build_write_metadata,
    overlay_segments,
)

__all__ = [
    "NodeKey",
    "ChildRef",
    "LeafSegment",
    "MetadataNode",
    "MetadataStore",
    "PartitionedMetadataStore",
    "SimMetadataProvider",
    "CacheStats",
    "MetadataNodeCache",
    "NodeCacheService",
    "build_write_metadata",
    "overlay_segments",
]
