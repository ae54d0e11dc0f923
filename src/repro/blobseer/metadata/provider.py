"""Metadata provider service: one shard of the versioned segment tree.

BlobSeer organizes metadata providers as a DHT; nodes are spread over them by
hashing their range key.  Metadata lives in memory (it is small — hundreds of
bytes per node) so the handlers charge no disk time; the RPC transport still
charges network time proportional to the number of nodes shipped.
"""

from __future__ import annotations

from typing import Iterable, Optional, TYPE_CHECKING

from repro.blobseer.metadata.nodes import MetadataNode
from repro.blobseer.metadata.store import MetadataStore
from repro.cluster.rpc import Service

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node


class SimMetadataProvider(Service):
    """A metadata shard deployed on a cluster node."""

    def __init__(self, node: "Node", store: Optional[MetadataStore] = None):
        super().__init__(node, name=f"metadata:{node.name}")
        self.store = store or MetadataStore(store_id=node.name)

    # ------------------------------------------------------------------
    # RPC handlers (generator methods)
    # ------------------------------------------------------------------
    def put_nodes(self, nodes: Iterable[MetadataNode]):
        """Store a batch of metadata nodes produced by one write."""
        count = 0
        for node in nodes:
            self.store.put_node(node)
            count += 1
        return count
        yield  # pragma: no cover - makes this a generator function

    def remove_nodes(self, keys):
        """Erase the exact-key nodes of a failed write's rollback."""
        return self.store.remove_nodes(keys)
        yield  # pragma: no cover - makes this a generator function

    def get_nodes(self, blob_id: str, requests, wanted=None):
        """Batched at-or-before lookups of one read-walk round.

        ``requests`` is a list of ``(offset, size, version)`` tuples; the
        response is ``(nodes, links)``: the nodes aligned with it (``None``
        entries for never-written ranges), then the base-chain links of
        every leaf lookup ``wanted`` names runs for
        (:meth:`~repro.blobseer.metadata.store.MetadataStore.get_nodes`).
        One such RPC answers every leaf of a read this shard holds, and
        their base versions, in a single exchange.
        """
        return self.store.get_nodes(blob_id, requests, wanted)
        yield  # pragma: no cover - makes this a generator function
