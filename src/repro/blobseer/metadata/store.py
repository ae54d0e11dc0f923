"""Metadata node store with at-or-before version resolution.

The store maps the *range key* ``(blob id, offset, size)`` to the list of
versions that created a node for that range.  The central query —
:meth:`MetadataStore.get_at_or_before` — returns the newest node of a range
whose version does not exceed the requested snapshot, which is how shadowed
(untouched) subtrees are resolved during versioned reads.

:class:`PartitionedMetadataStore` spreads range keys over several shards by
hashing, mirroring BlobSeer's DHT-organized metadata providers; the client
uses the partition map to know which metadata provider to contact for each
node and asks each shard for one read-frontier level's lookups in one RPC.
The hash leaves out the version, so every version of a range key lives on
one shard: a shard can follow a leaf's base-version chain itself and answer
it in the round trip that fetches the leaf (:meth:`MetadataStore.get_nodes`).
"""

from __future__ import annotations

import bisect
import hashlib
from functools import lru_cache, partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.blobseer.metadata.nodes import MetadataNode, NodeKey
from repro.blobseer.metadata.segment_tree import NodeRequest, Runs, base_chain
from repro.errors import VersionNotFound


RangeKey = Tuple[str, int, int]

#: what :meth:`MetadataStore.get_nodes` answers: the nodes aligned with the
#: lookups, and the base-chain links as ``(lookup, node-or-None)`` pairs
Answer = Tuple[List[Optional[MetadataNode]],
               List[Tuple[NodeRequest, Optional[MetadataNode]]]]


class MetadataStore:
    """One shard of versioned metadata nodes."""

    def __init__(self, store_id: str = "metadata0"):
        self.store_id = store_id
        # range key -> parallel lists (sorted versions, nodes)
        self._versions: Dict[RangeKey, List[int]] = {}
        self._nodes: Dict[RangeKey, List[MetadataNode]] = {}
        self.nodes_written: int = 0
        self.nodes_read: int = 0

    # ------------------------------------------------------------------
    def put_node(self, node: MetadataNode) -> None:
        """Insert an immutable node (idempotent for identical re-puts)."""
        range_key = node.key.range_key
        versions = self._versions.setdefault(range_key, [])
        nodes = self._nodes.setdefault(range_key, [])
        index = bisect.bisect_left(versions, node.key.version)
        if index < len(versions) and versions[index] == node.key.version:
            # Same node written twice (e.g. a retried RPC): keep the first.
            return
        versions.insert(index, node.key.version)
        nodes.insert(index, node)
        self.nodes_written += 1

    def remove_node(self, key: NodeKey) -> bool:
        """Remove the node with exactly this key (rollback of failed writes).

        Aborting a write whose ``put_nodes`` partially succeeded must erase
        the stored subset, or later snapshots' at-or-before lookups would
        resolve into a torn version.  Returns whether a node was removed.
        """
        range_key = key.range_key
        versions = self._versions.get(range_key)
        if not versions:
            return False
        index = bisect.bisect_left(versions, key.version)
        if index >= len(versions) or versions[index] != key.version:
            return False
        versions.pop(index)
        self._nodes[range_key].pop(index)
        if not versions:
            del self._versions[range_key]
            del self._nodes[range_key]
        return True

    def remove_nodes(self, keys: Sequence[NodeKey]) -> int:
        """Remove a batch of exact keys; returns how many existed."""
        return sum(1 for key in keys if self.remove_node(key))

    def get_at_or_before(self, blob_id: str, offset: int, size: int,
                         version: int) -> Optional[MetadataNode]:
        """Newest node for ``(offset, size)`` with version <= ``version``."""
        range_key = (blob_id, offset, size)
        versions = self._versions.get(range_key)
        if not versions:
            return None
        index = bisect.bisect_right(versions, version)
        if index == 0:
            return None
        self.nodes_read += 1
        return self._nodes[range_key][index - 1]

    def get_nodes(self, blob_id: str, requests: Sequence[NodeRequest],
                  wanted: Optional[Sequence[Optional[Runs]]] = None,
                  ) -> Answer:
        """Batched at-or-before lookups: one ``(offset, size, hint)`` each.

        Returns ``(nodes, links)``; ``nodes`` is aligned with ``requests``.
        This is the store-side half of the per-level batched fetch: a
        reading client ships one whole frontier level's lookups for this
        shard in a single RPC instead of one RPC per node.

        ``wanted``, aligned with ``requests`` when given, names the runs the
        reader still wants of a leaf lookup (``None`` for the others).  All
        versions of a leaf's range key live on this shard, so for each such
        lookup the shard follows the leaf's base chain itself: ``links``
        holds exactly the lookups the reader's walk would issue next for
        those runs, with their answers
        (:func:`~repro.blobseer.metadata.segment_tree.base_chain`).
        """
        nodes = [self.get_at_or_before(blob_id, offset, size, hint)
                 for offset, size, hint in requests]
        links: List[Tuple[NodeRequest, Optional[MetadataNode]]] = []
        if wanted is not None:
            get_node = partial(self.get_at_or_before, blob_id)
            for node, runs in zip(nodes, wanted):
                if runs:
                    links += base_chain(node, runs, get_node)
        return nodes, links

    def get_exact(self, key: NodeKey) -> MetadataNode:
        """Node with exactly this key (raises if absent)."""
        node = self.get_at_or_before(key.blob_id, key.offset, key.size, key.version)
        if node is None or node.key.version != key.version:
            raise VersionNotFound(f"no metadata node {key}")
        return node

    def node_count(self) -> int:
        """Total nodes held by this shard."""
        return sum(len(nodes) for nodes in self._nodes.values())


class PartitionedMetadataStore:
    """Hash-partitioned view over several metadata shards.

    The same class serves two purposes: in *direct* use it is simply a store
    spread over ``shards``; in the simulated deployment each shard lives
    inside one metadata provider service, and the partitioning function below
    is shared by the client to route node reads/writes to the right provider.
    """

    def __init__(self, shards: List[MetadataStore]):
        if not shards:
            raise ValueError("at least one metadata shard is required")
        self.shards = list(shards)

    @staticmethod
    @lru_cache(maxsize=1 << 16)
    def partition_index(blob_id: str, offset: int, size: int, shard_count: int) -> int:
        """Stable shard index for a range key (a pure hash, so memoized)."""
        digest = hashlib.sha256(f"{blob_id}:{offset}:{size}".encode()).digest()
        return int.from_bytes(digest[:4], "little") % shard_count

    def shard_for(self, blob_id: str, offset: int, size: int) -> MetadataStore:
        """The shard responsible for a range key."""
        index = self.partition_index(blob_id, offset, size, len(self.shards))
        return self.shards[index]

    # ------------------------------------------------------------------
    def put_node(self, node: MetadataNode) -> None:
        """Route the node to its shard."""
        self.shard_for(*node.key.range_key).put_node(node)

    def get_at_or_before(self, blob_id: str, offset: int, size: int,
                         version: int) -> Optional[MetadataNode]:
        """At-or-before lookup routed to the responsible shard."""
        return self.shard_for(blob_id, offset, size).get_at_or_before(
            blob_id, offset, size, version)

    def get_nodes(self, blob_id: str, requests: Sequence[NodeRequest],
                  wanted: Optional[Sequence[Optional[Runs]]] = None,
                  ) -> Answer:
        """Batched lookups, each routed to its shard
        (:meth:`MetadataStore.get_nodes`)."""
        nodes: List[Optional[MetadataNode]] = []
        links: List[Tuple[NodeRequest, Optional[MetadataNode]]] = []
        for index, request in enumerate(requests):
            shard = self.shard_for(blob_id, request[0], request[1])
            shard_nodes, shard_links = shard.get_nodes(
                blob_id, [request], None if wanted is None else [wanted[index]])
            nodes += shard_nodes
            links += shard_links
        return nodes, links

    def group_by_shard(self, blob_id: str,
                       requests: Sequence[Tuple[int, int, int]],
                       ) -> Dict[int, List[Tuple[int, int, int]]]:
        """Partition lookups by responsible shard index (request order kept).

        Shared by the simulated client so that one frontier level becomes one
        batched RPC per shard.
        """
        by_shard: Dict[int, List[Tuple[int, int, int]]] = {}
        shard_count = len(self.shards)
        for request in requests:
            offset, size, _ = request
            index = self.partition_index(blob_id, offset, size, shard_count)
            by_shard.setdefault(index, []).append(request)
        return by_shard

    def node_count(self) -> int:
        """Total nodes across all shards."""
        return sum(shard.node_count() for shard in self.shards)
