"""Node-local shared metadata cache: one service per simulated compute node.

Every client (MPI rank) placed on a node attaches to that node's
:class:`NodeCacheService`, so co-located ranks share one pool of resolved
metadata lookups instead of each re-fetching the identical upper-tree nodes
— the gap independent readers on the same node hit even after collective
plan broadcasts warmed the *participants*.  Versioned tree nodes are
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

**A bounded pool has one eviction rule: keep the top of the tree.**  A
key's ``size`` is the byte span of the tree node it resolves; the root of a
BLOB's segment tree spans the whole capacity and each level halves it, so
the span alone says how deep an entry sits.  Every traversal of a BLOB
passes through the same upper nodes, so the top :data:`PIN_LEVELS` levels
are pinned, and a victim is the deepest unpinned entry, least recently used
first within its level.  When everything resident is pinned the rule falls
back to the least recently used entry; if that is the newcomer itself, the
admission is declined (``capacity_rejections``).  A hit, a remote peek and
an overwrite each refresh recency.  An unbounded pool (``capacity=None``)
evicts nothing, so it keeps no recency order at all.  Per-tier statistics
(hits/misses/insertions/evictions plus gate rejections) feed the benchmark
harness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.blobseer.metadata.cache import CacheStats
from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blobseer.metadata.nodes import MetadataNode

#: cache key of one at-or-before lookup (same shape as the private cache)
HintKey = Tuple[str, int, int, int]

#: tree levels a bounded pool evicts last (root = level 0)
PIN_LEVELS = 3

#: sentinel distinguishing "not cached" from a cached negative (None) result
_ABSENT = object()

#: value a coalesced in-flight event resolves to when the leading fetch
#: failed.  The event is *succeeded* with this sentinel rather than failed:
#: a failed event nobody happens to be waiting on anymore would surface as
#: an unhandled simulator-level error, while waiters that do see the
#: sentinel re-raise (or fall back) themselves.
FETCH_FAILED = object()


class NodeCacheService:
    """The shared metadata cache of one simulated compute node.

    ``capacity`` bounds the entry count (``None`` = unbounded); a full
    pool evicts by the one rule of the module docstring.
    Clients attach with :meth:`attach` and detach with :meth:`detach`; the
    entry pool deliberately survives detaches — immutable published nodes
    stay valid for the next tenant, which is the whole point of node-local
    sharing (and safe precisely because of the admission gate).
    """

    def __init__(self, node_name: str, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise StorageError(
                f"capacity must be positive or None, got {capacity}")
        self.node_name = node_name
        self.capacity = capacity
        #: on top of lookups/hits/insertions/evictions:
        #: ``unpublished_rejections`` — publications refused because the
        #: entry's version hint exceeded the node's published watermark
        #: (the safety gate; see module doc); ``capacity_rejections`` —
        #: admissions declined because a full pool's rule picked the
        #: newcomer itself; ``coalesced_fetches`` — upstream fetches avoided
        #: because a simultaneous misser for the same key parked on the
        #: leader's sim event instead of fetching
        self.stats = CacheStats(insertions=0, evictions=0,
                                unpublished_rejections=0,
                                capacity_rejections=0, coalesced_fetches=0)
        #: the pool; while bounded its order is recency, least recent first
        self._entries: Dict[HintKey, Optional["MetadataNode"]] = {}
        #: while bounded, the largest node span admitted per BLOB: the root
        #: span once the root is in, which every traversal resolves first
        self._root_span: Dict[str, int] = {}
        #: newest *published* version this node has observed, per BLOB —
        #: the admission gate (fed by attached clients' note_published)
        self._watermarks: Dict[str, int] = {}
        #: names of currently attached clients (observability/debugging)
        self.attached: List[str] = []
        #: in-flight fetch table: lookup key -> the sim event simultaneous
        #: missers park on instead of issuing their own upstream fetch
        self._inflight: Dict[HintKey, object] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

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

    # ------------------------------------------------------------------
    def get(self, blob_id: str, offset: int, size: int,
            hint: int) -> Tuple[bool, Optional["MetadataNode"]]:
        """Shared-tier lookup: ``(True, node_or_None)`` on a hit."""
        key = (blob_id, offset, size, hint)
        self.stats.lookups += 1
        value = self._entries.get(key, _ABSENT)
        if value is _ABSENT:
            return False, None
        self.stats.hits += 1
        self._touch(key, value)
        return True, value

    def peek(self, blob_id: str, offset: int, size: int,
             hint: int) -> Tuple[bool, Optional["MetadataNode"]]:
        """Stat-free lookup for remote cooperative probes.

        Identical to :meth:`get` except hit/miss counters stay untouched:
        the cross-surface fall-through identity equates this service's
        lookups with its local tenants' private-cache misses, and a remote
        peer probe is neither.  Recency is still refreshed, like a hit —
        an entry hot enough to be probed from another node is worth
        keeping resident.
        """
        key = (blob_id, offset, size, hint)
        value = self._entries.get(key, _ABSENT)
        if value is _ABSENT:
            return False, None
        self._touch(key, value)
        return True, value

    def _touch(self, key: HintKey, value) -> None:
        """Make ``key`` the most recently used entry of a bounded pool."""
        if self.capacity is not None:
            del self._entries[key]
            self._entries[key] = value

    def pinned(self, key: HintKey) -> bool:
        """Whether a bounded pool's ``key`` is in the top :data:`PIN_LEVELS`
        levels of its BLOB's tree: its span is at most ``PIN_LEVELS - 1``
        halvings below the root's."""
        blob_id, _offset, size, _hint = key
        return size << (PIN_LEVELS - 1) >= self._root_span[blob_id]

    # ------------------------------------------------------------------
    # in-flight fetch coalescing
    # ------------------------------------------------------------------
    def coalesce(self, sim, blob_id: str, offset: int, size: int, hint: int,
                 owner: str = "client"):
        """Join (or lead) the in-flight upstream fetch for one key (the
        table behind :class:`~repro.blobseer.metadata.tiers.Coalescing`).

        The first misser leads, ``(True, None)``, and MUST settle the
        fetch through :meth:`coalesce_resolve` or :meth:`coalesce_abort`.
        A simultaneous misser gets ``(False, event)`` and parks on the
        leader's event, whose value is the fetched node (``None`` for a
        negative result) or :data:`FETCH_FAILED`; the avoided fetch is
        counted here.  ``owner`` tags who asks: an RPC handler
        (``"service"``) may only park on service-led fetches, which always
        resolve through a direct shard RPC — parked behind a ``"client"``
        it could close a cross-node wait cycle (two clients each leading a
        key while their probes park on each other's) — so it gets
        ``(False, None)``: neither lead nor park.
        """
        key = (blob_id, offset, size, hint)
        entry = self._inflight.get(key)
        if entry is None:
            self._inflight[key] = (owner, sim.event())
            return True, None
        leading_owner, event = entry
        if owner == "service" and leading_owner != "service":
            return False, None
        self.stats.coalesced_fetches += 1
        return False, event

    def coalesce_resolve(self, blob_id: str, offset: int, size: int,
                         hint: int, node: Optional["MetadataNode"]) -> None:
        """Leader hand-off: wake every parked waiter with the fetched node."""
        entry = self._inflight.pop((blob_id, offset, size, hint), None)
        if entry is not None and not entry[1].triggered:
            entry[1].succeed(node)

    def coalesce_abort(self, blob_id: str, offset: int, size: int,
                       hint: int) -> None:
        """The leading fetch failed: wake waiters with FETCH_FAILED."""
        entry = self._inflight.pop((blob_id, offset, size, hint), None)
        if entry is not None and not entry[1].triggered:
            entry[1].succeed(FETCH_FAILED)

    def publish(self, blob_id: str, offset: int, size: int, hint: int,
                node: Optional["MetadataNode"]) -> bool:
        """Offer one resolved lookup to the shared tier.

        Admitted only when ``hint`` does not exceed the node's published
        watermark — the gate that keeps a crashed client's pre-publication
        state out of the shared pool (see module docstring).  Returns
        whether the entry (or its alias) was admitted.
        """
        if hint > self.watermark(blob_id):
            self.stats.unpublished_rejections += 1
            return False
        admitted = self._insert((blob_id, offset, size, hint), node)
        if node is not None and node.key.version != hint:
            # alias under the exact version, like the private cache: other
            # hints resolving through this version share the entry.  The
            # node's version is <= hint (at-or-before), so it passes the
            # same gate by construction.
            admitted = self._insert(
                (blob_id, offset, size, node.key.version), node) or admitted
        return admitted

    def _insert(self, key: HintKey, node: Optional["MetadataNode"]) -> bool:
        if key in self._entries:
            self._entries[key] = node
            self._touch(key, node)
            return True
        self._entries[key] = node
        self.stats.insertions += 1
        if self.capacity is None:
            return True
        blob_id, _offset, size, _hint = key
        if size > self._root_span.get(blob_id, 0):
            self._root_span[blob_id] = size
        if len(self._entries) <= self.capacity:
            return True
        victim = self._victim()
        del self._entries[victim]
        if victim == key:
            # the rule chose the newcomer itself (everything else is
            # pinned): the admission is declined, not an eviction, and
            # the insertion is rolled back so the counters reconcile
            self.stats.insertions -= 1
            self.stats.capacity_rejections += 1
            return False
        self.stats.evictions += 1
        return True

    def _victim(self) -> HintKey:
        """The entry a full pool sheds: the deepest unpinned one, least
        recently used first within a level; the least recently used entry
        when everything is pinned."""
        victim = None
        for key in self._entries:  # least recently used first
            if not self.pinned(key) and (victim is None or key[2] < victim[2]):
                victim = key
        return next(iter(self._entries)) if victim is None else victim

    def clear(self) -> None:
        """Drop every entry (watermarks, root spans and counters are kept)."""
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<NodeCacheService {self.node_name} entries={len(self)} "
                f"capacity={self.capacity} hits={self.stats.hits}>")
