"""The metadata tier chain: one rule, one configured list, one fold.

A published snapshot's segment-tree nodes are immutable, so the question
"who may answer the lookup ``(blob, offset, size, version)``, and who may
keep the answer" has a single rule: anything at or below a published
watermark may be served forever and is never invalidated.  Every place that
can answer is a :class:`Tier` — the client's private node cache, its
compute node's shared pool, the authoritative shards — and a client's read
path is a fold over the ordered list :func:`build_chain` assembles, **the
only place that list is built**::

    [private?, node?, shards]

Every lookup is a leaf lookup at the read version
(:class:`~repro.blobseer.metadata.segment_tree.ReadPlanner`), or a link of
a leaf's base chain.  Callers hand the chain one round's lookups and call
:meth:`MetadataTierChain.resolve`; how a tier is asked is the chain's
business.  A *resident* tier answers from memory at no simulated cost, one
key at a time (:meth:`Tier.get`), so its recency order follows the walk's;
a hit is promoted into the resident tiers above it.  The *terminal* shards
cost simulated time and take the round's residual misses as a batch
(:meth:`Tier.lookup`, a generator): the walk names the runs it wants of
each leaf (``wanted``), and the shard answers the leaf's base chain in the
same round trip.  Once a round is resolved every entry it fetched — chain
links included — is offered to the resident tiers
(:meth:`MetadataTierChain.admit`); a *gated* tier — one that outlives its
clients — admits only at or below the published watermark it was told, so
a writer's own leaves reach it only through
:meth:`MetadataTierChain.admit_published`.

Each tier counts its own ``lookups`` and ``hits``
(:class:`~repro.blobseer.metadata.cache.CacheStats`), so one identity
covers any list (:func:`partition_problems`), and the tiers that front a
shared service reconcile with it (:func:`wire_problems`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.blobseer.metadata.cache import CacheStats, MetadataNodeCache
from repro.blobseer.metadata.nodes import MetadataNode
from repro.blobseer.metadata.segment_tree import EXTENT_DESCRIPTION_BYTES, Runs
from repro.blobseer.metadata.sharedcache import NodeCacheService

#: one at-or-before lookup: (offset, size, version)
NodeRequest = Tuple[int, int, int]
Resolved = Dict[NodeRequest, Optional[MetadataNode]]
#: the runs a walk wants of its leaf lookups (shipped to the shards)
Wanted = Optional[Dict[NodeRequest, Runs]]

#: "not given": follow the cluster config (``None`` is a real capacity —
#: it forces an unbounded cache against a bounded cluster default)
UNSET = object()


class Tier:
    """One place that may answer a lookup and may keep the answer."""

    name = "tier"
    #: answers from memory through :meth:`get`; otherwise :meth:`lookup`
    resident = False
    #: answers every lookup that reaches it: what it serves was fetched,
    #: not found in a cache
    terminal = False
    #: admits only at or below a published watermark (it outlives the
    #: client, so a writer's pre-publication state must never enter)
    gated = False
    #: the node-shared pool this tier is routed through, if any —
    #: detaching from the pool drops the tier from the list
    pool: Optional[NodeCacheService] = None

    def get(self, blob_id: str, offset: int, size: int, hint: int):
        """Resident tiers: ``(found, node_or_None)`` for one key."""
        raise NotImplementedError

    def lookup(self, blob_id: str, requests: Sequence[NodeRequest],
               wanted: Wanted = None):
        """The terminal tier (generator): ``{request: node-or-None}`` for
        every request, plus the lookups it answered ahead of the walk for
        the runs ``wanted`` named."""
        raise NotImplementedError

    def admit(self, blob_id: str, entries) -> None:
        """Offer ``((offset, size, hint), node-or-None)`` pairs, in order."""

    def note_published(self, blob_id: str, version: int) -> None:
        """``version`` of ``blob_id`` was observed published."""

    def served(self):
        """``(service, what it counted, what this client counted)`` for a
        tier fronting a service shared with other clients, else ``None``."""
        return None


class PrivateTier(MetadataNodeCache, Tier):
    """The client's own node cache.  It dies with the client, so it may
    hold write-through entries of a version still being published."""

    name = "private"
    resident = True
    admit = MetadataNodeCache.put_many


class NodeTier(Tier):
    """One client's attachment to its compute node's shared pool."""

    name = "node"
    resident = True
    gated = True

    def __init__(self, pool: NodeCacheService, client_name: str):
        self.pool = pool
        self.stats = CacheStats()
        pool.attach(client_name)

    def get(self, blob_id, offset, size, hint):
        self.stats.lookups += 1
        found, node = self.pool.get(blob_id, offset, size, hint)
        self.stats.hits += found
        return found, node

    def admit(self, blob_id, entries) -> None:
        publish = self.pool.publish
        for (offset, size, hint), node in entries:
            publish(blob_id, offset, size, hint, node)

    def note_published(self, blob_id, version) -> None:
        self.pool.note_published(blob_id, version)

    def served(self):
        return self.pool, lambda: self.pool.stats.lookups, self.stats.lookups


class ShardTier(Tier):
    """The authoritative metadata shards: the terminal tier.

    A round's lookups cost one ``get_nodes`` RPC per responsible shard,
    issued in parallel.  A leaf lookup carries the runs ``wanted`` names
    for it (:data:`EXTENT_DESCRIPTION_BYTES` each), and the shard answers
    it with the leaf's base chain as well: the links come back as extra
    hits under exactly the keys the walk will look up next, one node size
    each on the wire.
    """

    name = "shards"
    terminal = True

    def __init__(self, owner):
        self.owner = owner
        self.stats = CacheStats(read_rpcs=0)

    def lookup(self, blob_id, requests, wanted=None):
        owner, stats = self.owner, self.stats
        config = owner.cluster.config
        node_size = config.metadata_node_size
        request_size = config.metadata_request_size
        shards = owner.deployment.metadata_providers
        hits: Resolved = {}
        by_shard = owner.deployment.metadata_store.group_by_shard(
            blob_id, requests)

        def answer_size(answer):
            nodes, links = answer
            return (len(nodes) + len(links)) * node_size

        def fetch_shard(index, shard_requests):
            request_bytes = len(shard_requests) * request_size
            runs = None
            if wanted:
                runs = [wanted.get(request) for request in shard_requests]
                request_bytes += EXTENT_DESCRIPTION_BYTES * sum(
                    len(leaf) for leaf in runs if leaf)
            nodes, links = yield from owner._rpc(
                shards[index], "get_nodes", request_bytes, answer_size,
                blob_id, shard_requests, runs)
            hits.update(zip(shard_requests, nodes))
            hits.update(links)

        yield owner.cluster.sim.fanout(
            [fetch_shard(index, shard_requests)
             for index, shard_requests in sorted(by_shard.items())])
        stats.read_rpcs += len(by_shard)
        stats.lookups += len(requests)
        stats.hits += len(requests)
        return hits


class MetadataTierChain:
    """One owner's ordered tiers and the fold over them (module docstring)."""

    def __init__(self, order: List[Tier], name: str = "chain"):
        self.name = name
        #: the list, in lookup order: resident tiers, then the terminal one
        self.order = order
        #: tiers dropped by :meth:`detach`; their counters stay collectable
        self.detached: List[Tier] = []
        #: deduplicated lookups handed to :meth:`resolve`
        self.lookups = 0

    def find(self, name: str) -> Optional[Tier]:
        """The tier called ``name`` (detached ones included), if any."""
        for tier in self.order + self.detached:
            if tier.name == name:
                return tier
        return None

    def count(self, name: str, counter: str) -> int:
        """One counter of one tier; 0 when the list has no such tier."""
        tier = self.find(name)
        return 0 if tier is None else getattr(tier.stats, counter)

    @property
    def fetched_lookups(self) -> int:
        """Lookups no tier of this chain answered from a cache: the ones
        its terminal tier fetched."""
        return sum(tier.stats.hits for tier in self.order if tier.terminal)

    # ------------------------------------------------------------------
    def resolve(self, blob_id: str, requests: Sequence[NodeRequest],
                wanted: Wanted = None):
        """One walk round's lookups → ``{request: node-or-None}`` (generator).

        ``wanted`` maps leaf lookups to the runs the walk wants of them; the
        terminal tier answers those leaves' base chains along, and every
        fetched entry is admitted, so the walk's next rounds find the chain
        in the resident tiers.  A chain with no resident tier could keep no
        link, so it asks for none.
        """
        self.lookups += len(requests)
        resident = [tier for tier in self.order if tier.resident]
        gets = [tier.get for tier in resident]
        results: Resolved = {}
        pending: List[NodeRequest] = []
        for request in requests:
            offset, size, hint = request
            depth = 0
            for get in gets:
                found, node = get(blob_id, offset, size, hint)
                if found:
                    # promote: this owner's repeats stay in the tiers above
                    for upper in resident[:depth]:
                        upper.admit(blob_id, ((request, node),))
                    results[request] = node
                    break
                depth += 1
            else:
                pending.append(request)
        if pending:
            fetched = yield from self.order[-1].lookup(
                blob_id, pending, wanted if resident else None)
            entries = [(request, fetched[request]) for request in pending]
            if len(fetched) > len(pending):  # the base-chain links
                asked = set(pending)
                entries += [entry for entry in fetched.items()
                            if entry[0] not in asked]
            self.admit(blob_id, entries)
            results.update(fetched)
        return results

    def _offer(self, blob_id: str, entries, gated: bool) -> int:
        takers = [tier for tier in self.order
                  if tier.resident and tier.gated == gated]
        for tier in takers:
            tier.admit(blob_id, entries)
        return len(takers)

    def prime(self, blob_id: str, entries) -> int:
        """Write-through, before publication is known: offer the writer's
        own nodes to the tiers that die with the owner; returns how many
        tiers were offered them."""
        return self._offer(blob_id, entries, gated=False)

    def admit_published(self, blob_id: str, entries) -> int:
        """Write-through, once ``entries``' version is known published:
        offer them to the gated tiers :meth:`prime` held them back from."""
        return self._offer(blob_id, entries, gated=True)

    def admit(self, blob_id: str, entries) -> int:
        """Offer resolved lookups of a published snapshot to every resident
        tier; returns how many tiers were offered them."""
        return (self.prime(blob_id, entries)
                + self.admit_published(blob_id, entries))

    def note_published(self, blob_id: str, version: int) -> None:
        """Forward a publication observation: gated tiers open up to it."""
        for tier in self.order:
            tier.note_published(blob_id, version)

    def detach(self) -> None:
        """Leave the node-shared pool: drop every tier routed through it.

        Published entries this owner contributed stay resident for the
        node's other tenants — safe precisely because the pool never
        admitted anything from an unpublished version.
        """
        kept = []
        for tier in self.order:
            if tier.pool is None:
                kept.append(tier)
            else:
                self.detached.append(tier)
                tier.pool.detach(self.name)  # idempotent
        self.order = kept


def build_chain(owner, *, private: bool = True, capacity=UNSET,
                node_shared=UNSET) -> MetadataTierChain:
    """The one place a client's tier list is assembled.

    ``owner`` is the client (its node, deployment and RPC helpers);
    arguments left :data:`UNSET` follow the cluster config, and they only
    shape the list: ``private=False`` drops the private tier.  The shards
    are asked in batches, one ``get_nodes`` RPC per shard and walk round,
    for the leaf lookups the walk issues plus their base chains
    (:class:`ShardTier`).
    """
    config = owner.cluster.config

    def setting(value, field):
        return getattr(config, field) if value is UNSET else value

    order: List[Tier] = []
    chain = MetadataTierChain(order, name=owner.name)
    if private:
        order.append(PrivateTier(
            capacity=setting(capacity, "metadata_cache_capacity")))
    if setting(node_shared, "shared_metadata_cache"):
        order.append(NodeTier(owner.deployment.node_cache(owner.node),
                              owner.name))
    order.append(ShardTier(owner))
    return chain


# ----------------------------------------------------------------------
# the lookup partition, for any list
# ----------------------------------------------------------------------
def partition_problems(chains: Sequence[MetadataTierChain]) -> List[str]:
    """Violations of the N-tier lookup partition, one chain at a time.

    Every lookup handed to a chain is answered by exactly one tier:
    ``total == sum(hits)`` — and while the list is as built, tier by tier,
    ``lookups(i+1) == lookups(i) - hits(i)``.
    """
    problems = []
    for chain in chains:
        tiers = chain.order
        answered = sum(tier.stats.hits for tier in tiers + chain.detached)
        if chain.lookups != answered:
            problems.append(
                f"{chain.name}: {chain.lookups} lookups but its tiers "
                f"account for {answered}")
        if chain.detached:
            continue
        reaching = chain.lookups
        for tier in tiers:
            if tier.stats.lookups != reaching:
                problems.append(
                    f"{chain.name}: {tier.stats.lookups} lookups at tier "
                    f"{tier.name!r}, {reaching} fell through to it")
            reaching = tier.stats.lookups - tier.stats.hits
    return problems


def wire_problems(chains: Sequence[MetadataTierChain]) -> List[str]:
    """Violations of service/client conservation over a *complete* client
    set: what each shared service counted must equal what the tiers
    fronting it say they asked of it (:meth:`Tier.served`)."""
    claims: Dict[int, list] = {}
    for chain in chains:
        for tier in chain.order + chain.detached:
            claim = tier.served()
            if claim is not None:
                service, counted, received = claim
                claims.setdefault(id(service),
                                  [tier.name, counted, 0])[2] += received
    return [f"{name} tier: services counted {counted()} but their clients "
            f"account for {received}"
            for name, counted, received in claims.values()
            if counted() != received]
