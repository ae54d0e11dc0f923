"""Cluster-wide cooperative metadata cache tier: provider/sampler roles.

The node-local shared tier (:mod:`repro.blobseer.metadata.sharedcache`)
stops at the node boundary, so ``metadata_rpcs_per_read`` flattens at the
``1/ranks_per_node`` ideal no matter how many nodes the cluster has.  This
module lets compute nodes answer *each other's* misses before anyone falls
back to the authoritative metadata shards, demoting the shards to a cold
tier.  Versioned tree nodes are immutable, so cross-node sharing needs no
invalidation protocol — the hard parts are **routing** (who do I ask?) and
**admission** (what may enter a pool?), both solved here without any
coordination traffic:

Roles
    Each ``(node, blob)`` pair deterministically hashes to a **provider**
    or **sampler** role (:func:`role_for`) — no messages, no agreement
    protocol, identical on every node and every replay.  A provider is a
    read-through custodian: a probe miss makes it fetch the node from the
    authoritative shard itself, admit it into its own pool (through its
    own watermark gate) and answer — so its pool converges on a full
    replica of the hot set it is probed for.  A sampler answers only what
    its custody-aligned slice already holds; a miss is a miss and the
    prober falls back to the shard.

Custody
    Every lookup key hashes to one responsible participant
    (:func:`custodian_index`, hint excluded so all versions of a range
    colocate).  A prober sends each miss to the key's custodian — unless
    the custodian is itself, in which case it asks the first *provider*
    for that blob along the ring (or nobody, on a one-node cluster).

Admission
    Both directions stay watermark-gated.  The prober ships its own
    observed-published watermark with the probe (an observed *published*
    version claim, exactly as trustworthy as a local tenant's
    ``note_published``); answers are admitted into the *receiving* node's
    pool only through that node's own gate — so a crashed client's
    pre-publication state can't poison a remote pool from either side.

Probes travel over the real simulated RPC transport (request/response
transfers, handling overhead), so the tier's benefit is measured against
its true network cost, and a dead peer (fault injection) simply answers
"unavailable": the prober falls back to the authoritative shard and byte
identity is preserved by construction.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.blobseer.metadata.cache import CacheStats
from repro.blobseer.metadata.sharedcache import NodeCacheService
from repro.blobseer.metadata.tiers import PEER_MISS, Coalescing, ShardTier
from repro.cluster.rpc import Service

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blobseer.deployment import BlobSeerDeployment
    from repro.cluster.node import Node

#: the cooperative node roles
PROVIDER = "provider"
SAMPLER = "sampler"

#: share of (node, blob) pairs whose role hash elects the node a provider
PROVIDER_FRACTION = 0.5


def _stable_fraction(tag: str) -> float:
    """A stable hash of ``tag`` mapped into ``[0, 1)`` (SHA-256, like the
    metadata shard partitioning — never Python's salted ``hash``)."""
    digest = hashlib.sha256(tag.encode()).digest()
    return int.from_bytes(digest[:4], "little") / 2 ** 32


def role_for(node_name: str, blob_id: str) -> str:
    """The cooperative role of ``node_name`` for ``blob_id``.

    Pure and deterministic: derived from a stable hash of
    ``(node_name, blob_id)`` alone — no RNG stream, no coordination, the
    same answer on every node, every process and every replay.
    :data:`PROVIDER_FRACTION` of the pairs are providers.
    """
    if _stable_fraction(f"coop-role:{node_name}:{blob_id}") \
            < PROVIDER_FRACTION:
        return PROVIDER
    return SAMPLER


@lru_cache(maxsize=1 << 16)
def custodian_index(blob_id: str, offset: int, size: int,
                    participant_count: int) -> int:
    """The ring slot responsible for one lookup range.

    The version hint is deliberately excluded so every version of a range
    key colocates on one custodian — at-or-before answers for different
    hints usually resolve to the same immutable node.  A pure hash, so
    memoized.
    """
    digest = hashlib.sha256(
        f"coop-custody:{blob_id}:{offset}:{size}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % participant_count


class PeerCacheService(Service):
    """The cooperative face of one compute node's shared cache pool.

    Registered in the deployment's :class:`CoopDirectory` when the first
    cooperative client attaches on the node; answers ``probe`` RPCs from
    other nodes' clients out of the same :class:`NodeCacheService` pool
    the node's own tenants share.
    """

    #: RPC handlers run untraced: a parked read-through opens no span
    trace_ctx = None

    def __init__(self, node: "Node", pool: NodeCacheService,
                 directory: "CoopDirectory"):
        super().__init__(node, name=f"coopcache:{node.name}")
        self.pool = pool
        self.directory = directory
        self.cluster = directory.cluster
        self.deployment = directory.deployment
        #: probed keys this node was asked (``lookups``) and answered from
        #: its pool or by read-through (``hits``); authoritative shard
        #: fetches performed on behalf of probers; probe RPCs answered
        #: "unavailable" because the service was dead
        self.stats = CacheStats(read_throughs=0, unavailable_probes=0)
        #: fault-injection hook: a dead service answers "unavailable"
        self.alive = True
        #: the provider role's read-through is a client's fold led as
        #: ``"service"``: coalesced through this node's in-flight table (a
        #: storm of probers missing on one key costs one upstream fetch),
        #: then one ``get_node`` round-trip to the owning shard
        self.upstream = Coalescing(
            self, pool, [ShardTier(self, batching=False)], role="service",
            on_lead=self._keep)

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Fault injection: the node's cooperative daemon dies.

        The pool is dropped too (its memory died with the daemon); local
        tenants simply refill it.  Dropping cached immutable published
        nodes is always safe — that is the whole cooperative bet.
        """
        self.alive = False
        self.pool.clear()

    def role(self, blob_id: str) -> str:
        """This node's role for ``blob_id`` (see :func:`role_for`)."""
        return role_for(self.node.name, blob_id)

    # ------------------------------------------------------------------
    # RPC handler (generator method)
    # ------------------------------------------------------------------
    def probe(self, blob_id: str, requests, watermark: int = 0):
        """Answer a batch of at-or-before lookups for a remote prober.

        ``requests`` is a list of ``(offset, size, hint)`` tuples; the
        response is aligned with it — each entry a resolved node, a cached
        negative (``None``), or :data:`PEER_MISS`.  ``watermark`` is the
        prober's observed-published version for ``blob_id``: an observed
        *publication* claim (never write-through state), so feeding it to
        this pool's gate is exactly as safe as a local tenant's
        ``note_published``.  Returns ``None`` when the service is dead —
        the prober treats the whole probe as a miss and falls back to the
        authoritative shards.
        """
        if not self.alive:
            self.stats.unavailable_probes += 1
            return None
        pool = self.pool
        pool.note_published(blob_id, watermark)
        read_through = self.role(blob_id) == PROVIDER
        results: List[object] = []
        for request in requests:
            self.stats.lookups += 1
            hit, node = pool.peek(blob_id, *request)
            if hit:
                self.stats.hits += 1
                results.append(node)
                continue
            if read_through:
                # provider read-through: fetch authoritatively on the
                # prober's behalf and answer.  A failed fetch, or one a
                # local tenant already leads (answering "miss" — one
                # redundant shard RPC for the prober — is the price of
                # never parking a handler behind a client), degrades to a
                # miss: the prober falls back to the shard itself
                try:
                    answers, _declined = yield from self.upstream.lookup(
                        blob_id, [request])
                except Exception:
                    answers = {}
                if answers:
                    self.stats.hits += 1
                    results.append(answers[request])
                    continue
            results.append(PEER_MISS)
        return results

    def _keep(self, blob_id: str, fetched) -> None:
        """Admit what this provider fetched itself into its own pool —
        gated, but the prober's watermark was noted at probe start, so a
        probe for a published snapshot always passes."""
        self.stats.read_throughs += len(fetched)
        for (offset, size, hint), node in fetched.items():
            self.pool.publish(blob_id, offset, size, hint, node)

    def _rpc(self, service, method, request_bytes, response_bytes, *args):
        return self.cluster.rpc.call(self.node, service, method,
                                     request_bytes, response_bytes, *args)


class CoopDirectory:
    """The deployment's view of the cooperative tier: who participates.

    Membership is just "compute nodes whose clients enabled the
    cooperative tier", discovered as they attach; routing over the sorted
    member list plus the stable custody/role hashes is what makes the
    whole tier coordination-free.
    """

    def __init__(self, deployment: "BlobSeerDeployment"):
        self.deployment = deployment
        self.cluster = deployment.cluster
        self.services: Dict[str, PeerCacheService] = {}
        self._sorted_names: Optional[List[str]] = None

    # ------------------------------------------------------------------
    def register(self, node: "Node",
                 pool: NodeCacheService) -> PeerCacheService:
        """Enroll ``node`` (idempotent), exposing ``pool`` to its peers."""
        service = self.services.get(node.name)
        if service is None:
            service = PeerCacheService(node, pool, self)
            self.services[node.name] = service
            self._sorted_names = None
        return service

    def participants(self) -> List[str]:
        """Sorted member node names (the custody ring, cached)."""
        if self._sorted_names is None:
            self._sorted_names = sorted(self.services)
        return self._sorted_names

    # ------------------------------------------------------------------
    def route(self, prober: str, blob_id: str, offset: int,
              size: int) -> Optional[PeerCacheService]:
        """The one peer ``prober`` should ask about a lookup range.

        The key's custodian, normally; when the prober *is* the custodian
        (its own shared tier already missed, so asking itself is useless)
        the first **provider**-role peer for this blob along the ring.
        ``None`` means nobody can help — go straight to the shards.
        """
        participants = self.participants()
        if len(participants) < 2:
            return None
        slot = custodian_index(blob_id, offset, size, len(participants))
        custodian = participants[slot]
        if custodian != prober:
            return self.services[custodian]
        for step in range(1, len(participants)):
            candidate = participants[(slot + step) % len(participants)]
            if candidate != prober \
                    and role_for(candidate, blob_id) == PROVIDER:
                return self.services[candidate]
        return None

    def stats(self) -> Dict[str, int]:
        """Aggregate peer-serving counters over every member service."""
        stats = [service.stats for service in self.services.values()]
        totals = {
            "served_hits": sum(entry.hits for entry in stats),
            "served_misses": sum(entry.misses for entry in stats),
            "read_throughs": sum(entry.read_throughs for entry in stats),
            "unavailable_probes": sum(entry.unavailable_probes
                                      for entry in stats),
        }
        totals["services"] = len(self.services)
        totals["probe_rpcs"] = sum(service.calls.get("probe", 0)
                                   for service in self.services.values())
        return totals
