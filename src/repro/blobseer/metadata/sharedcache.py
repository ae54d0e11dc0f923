"""Node-local shared metadata cache: one service per simulated compute node.

Every client (MPI rank) placed on a node attaches to that node's
:class:`NodeCacheService`, so co-located ranks share one pool of resolved
leaf lookups instead of each re-fetching the identical leaves of one
snapshot — the gap independent readers on the same node hit even after
collective plan broadcasts warmed the *participants*.  Versioned tree nodes are
immutable, so sharing needs no invalidation protocol; the one thing the
shared tier must never do is hold an entry a crashed co-tenant produced for
a version that never published.

**Admission is therefore gated on the published watermark.**  A private
:class:`~repro.blobseer.metadata.cache.MetadataNodeCache` may hold
write-through entries of a version whose ``complete`` is still in flight —
if that client dies, its private cache dies with it and nothing leaks.  The
shared tier outlives its clients, and an aborted ticket *publishes empty*
(the version manager republishes the base snapshot under the dead version
number so publication never stalls), so a poisoned shared entry under that
version would serve the dead writer's rolled-back nodes to every later
reader on the node.  :meth:`NodeCacheService.publish` refuses any entry
whose version hint exceeds the newest *published* version the service has
been told about (:meth:`note_published`, fed by every attached client's
watermark observations); read-path traversals always target published
snapshots, so their results pass the gate as soon as the node has seen the
version — while a writer's pre-publication state never enters.

Access is modeled as free of simulated time: the service stands in for a
shared-memory segment (or a node-local daemon reached over loopback), whose
cost is negligible against the 100 µs-scale network round-trip a metadata
RPC costs — exactly the trade the subsystem exists to exploit.

**The pool is a** :class:`~repro.blobseer.metadata.cache.MetadataNodeCache`
— the private cache's LRU map, version aliases and counters — that keeps
only the gate, the watermarks and the attachments of its own.  Reads look
leaves up only, so no level deserves keeping over another: a full pool sheds
its least recently used entry, and a hit or an overwrite refreshes recency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.blobseer.metadata.cache import MetadataNodeCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blobseer.metadata.nodes import MetadataNode


class NodeCacheService(MetadataNodeCache):
    """The shared metadata cache of one simulated compute node.

    ``capacity`` bounds the entry count (``None`` = unbounded); a full
    pool evicts its least recently used entry.
    Clients attach with :meth:`attach` and detach with :meth:`detach`; the
    entry pool deliberately survives detaches — immutable published nodes
    stay valid for the next tenant, which is the whole point of node-local
    sharing (and safe precisely because of the admission gate).
    """

    def __init__(self, node_name: str, capacity: Optional[int] = None):
        super().__init__(capacity)
        self.node_name = node_name
        #: on top of the cache's counters: publications refused because
        #: the entry's version hint exceeded the node's published
        #: watermark (the safety gate; see module doc)
        self.stats.unpublished_rejections = 0
        #: newest *published* version this node has observed, per BLOB —
        #: the admission gate (fed by attached clients' note_published)
        self._watermarks: Dict[str, int] = {}
        #: names of currently attached clients (observability/debugging)
        self.attached: List[str] = []

    # ------------------------------------------------------------------
    def attach(self, client_name: str) -> None:
        """Register a co-located client (bookkeeping only).

        Idempotent: re-attaching an already-attached client is a no-op, so
        one client can never hold two slots — a duplicate would leave a
        phantom attachment behind after a single detach and break every
        consumer that treats ``attached`` as the set of live tenants.
        """
        if client_name not in self.attached:
            self.attached.append(client_name)

    def detach(self, client_name: str) -> None:
        """Unregister a client; cached published entries stay resident."""
        if client_name in self.attached:
            self.attached.remove(client_name)

    # ------------------------------------------------------------------
    # the publication watermark gate
    # ------------------------------------------------------------------
    def note_published(self, blob_id: str, version: int) -> None:
        """Record that ``version`` of ``blob_id`` is known published."""
        if version > self._watermarks.get(blob_id, 0):
            self._watermarks[blob_id] = version

    def watermark(self, blob_id: str) -> int:
        """Newest published version this node has observed for ``blob_id``."""
        return self._watermarks.get(blob_id, 0)

    def publish(self, blob_id: str, offset: int, size: int, hint: int,
                node: Optional["MetadataNode"]) -> bool:
        """Offer one resolved lookup to the shared tier.

        Admitted (with its exact-version alias, whose version is at or
        below ``hint``) only when ``hint`` does not exceed the node's
        published watermark — the gate that keeps a crashed client's
        pre-publication state out of the shared pool (see module
        docstring).  Returns whether the entry passed the gate.
        """
        if hint > self.watermark(blob_id):
            self.stats.unpublished_rejections += 1
            return False
        self.put(blob_id, offset, size, hint, node)
        return True
