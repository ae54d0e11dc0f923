"""The metadata tier chain: one rule, one configured list, one fold.

A published snapshot's segment-tree nodes are immutable, so the question
"who may answer the lookup ``(blob, offset, size, hint)``, and who may keep
the answer" has a single rule: anything at or below a published watermark
may be served forever and is never invalidated.  Every place that can
answer is a :class:`Tier` — the client's private node cache, its compute
node's shared pool, the cooperative peers across the node boundary, the
authoritative shards — and a client's read path is a fold over the ordered
list :func:`build_chain` assembles, **the only place that list is built**::

    [private?, node?, coalesce?[ peers?, shards ]]

Callers hand the chain one list and call :meth:`MetadataTierChain.resolve`;
how a tier is asked is the chain's business.  A *resident* tier answers
from memory at no simulated cost, one key at a time (:meth:`Tier.get`), so
its recency order follows the traversal's; a hit is promoted into the
resident tiers above it.  Any other tier costs simulated time and takes one
tree level's residual misses as a batch (:meth:`Tier.lookup`, a generator)
— the peers answer what their pools hold, the *terminal* shards answer
everything left and ship only what the walk will ask next for the runs it
named: with a leaf lookup the walk names the runs it wants of that leaf
(``wanted``), and the shard answers the leaf's base chain in the same round
trip.
:class:`Coalescing` wraps the tiers below it: simultaneous missers of one
key on one compute node share the leader's fetch.  Once a level is
resolved every entry it fetched — chain links included — is offered to
all of them (:meth:`MetadataTierChain.admit`); a *gated* tier — one that
outlives its clients — admits only at or below the published watermark it
was told, so a writer's own nodes reach it only through
:meth:`MetadataTierChain.admit_published`.

Each tier counts its own ``lookups`` and ``hits``
(:class:`~repro.blobseer.metadata.cache.CacheStats`), so one identity
covers any list (:func:`partition_problems`), and the tiers that front a
shared service reconcile with it (:func:`wire_problems`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.blobseer.metadata.cache import CacheStats, MetadataNodeCache
from repro.blobseer.metadata.nodes import MetadataNode
from repro.blobseer.metadata.segment_tree import EXTENT_DESCRIPTION_BYTES, Runs
from repro.blobseer.metadata.sharedcache import FETCH_FAILED, NodeCacheService
from repro.blobseer.metadata.store import PartitionedMetadataStore
from repro.errors import StorageError

#: one at-or-before lookup: (offset, size, version hint)
NodeRequest = Tuple[int, int, int]
Resolved = Dict[NodeRequest, Optional[MetadataNode]]
#: the runs a walk wants of its leaf lookups (shipped to the shards)
Wanted = Optional[Dict[NodeRequest, Runs]]

#: "not given": follow the cluster config (``None`` is a real capacity —
#: it forces an unbounded cache against a bounded cluster default)
UNSET = object()


#: probe-response marker for "this peer has no answer" (distinct from a
#: cached negative result, which is a genuine answer of ``None``)
PEER_MISS = object()


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
        """Other tiers (generator): ``(hits, residual misses)``.

        ``hits`` may hold more keys than were asked: the lookups a terminal
        tier answered ahead of the walk for the runs ``wanted`` named."""
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


class Coalescing(Tier):
    """In-flight coalescing around the tiers in ``inner``.

    Each key this chain is first to miss on its compute node it *leads*
    through ``inner``; a key already in flight there it *parks* on, taking
    the leader's result without touching the wire.  ``role`` tags who
    leads — a ``"service"`` (an RPC handler) declines to park behind a
    ``"client"`` and returns the key as a miss instead (see
    :meth:`~repro.blobseer.metadata.sharedcache.NodeCacheService.coalesce`).
    ``on_lead(blob_id, fetched)`` sees what this chain fetched as leader
    before its waiters wake.
    """

    name = "coalesce"

    def __init__(self, owner, pool: NodeCacheService, inner: List[Tier],
                 role: str = "client",
                 on_lead: Optional[Callable[[str, Resolved], None]] = None):
        self.owner = owner
        self.pool = pool
        self.inner = inner
        self.role = role
        self.on_lead = on_lead
        #: ``parked``: lookups that left the chain here to wait on a fetch
        #: somebody else led
        self.stats = CacheStats(parked=0)

    def lookup(self, blob_id, requests, wanted=None):
        pool = self.pool
        sim = self.owner.cluster.sim
        led: List[NodeRequest] = []
        parked = []
        declined: List[NodeRequest] = []
        for request in requests:
            leader, event = pool.coalesce(sim, blob_id, *request,
                                          owner=self.role)
            if leader:
                led.append(request)
            elif event is None:
                declined.append(request)
            else:
                parked.append((request, event))
        self.stats.lookups += len(requests)
        self.stats.parked += len(parked)
        try:
            results = yield from fold(self.inner, blob_id, led, wanted)
            if self.on_lead is not None and results:
                self.on_lead(blob_id, results)
        except BaseException:
            # never leave this node's parked waiters hanging on a fetch
            # that died with its leader
            for request in led:
                pool.coalesce_abort(blob_id, *request)
            raise
        # resolve our leads before waiting on parked events: the reverse
        # order could park forever behind our own unresolved leads
        for request in led:
            pool.coalesce_resolve(blob_id, *request, results[request])
        ctx = self.owner.trace_ctx
        for request, event in parked:
            park_span = None if ctx is None else ctx.begin(
                "meta.park", cat="wait", blob=blob_id, key=list(request))
            try:
                value = yield event
            finally:
                if park_span is not None:
                    ctx.finish(park_span)
            if value is FETCH_FAILED:
                raise StorageError(
                    f"coalesced metadata fetch {request} for blob "
                    f"{blob_id!r} failed at its leader")
            results[request] = value
        return results, declined


class PeerTier(Tier):
    """The cooperative tier: ask the responsible peer node's pool.

    Routes every lookup through the cooperative directory (custody hash,
    provider fallback when this node is custodian) and fans one ``probe``
    RPC out per target peer.  Answers pass through *this* node's watermark
    gate before being trusted: a peer whose claimed version this node has
    never observed published is rejected and the lookup falls through to
    the authoritative shards, as does anything a dead peer was asked.
    """

    name = "peers"

    def __init__(self, owner, pool: NodeCacheService):
        self.owner = owner
        self.pool = pool
        #: enrolling this compute node makes its pool probeable in turn
        self.directory = owner.deployment.coop_peer(owner.node).directory
        self.stats = CacheStats(rejections=0, probe_misses=0, probe_rpcs=0)

    def lookup(self, blob_id, requests, wanted=None):
        owner, stats = self.owner, self.stats
        stats.lookups += len(requests)
        directory = self.directory
        groups: Dict[str, tuple] = {}
        for request in requests:
            offset, size, _hint = request
            target = directory.route(owner.node.name, blob_id, offset, size)
            if target is not None:
                groups.setdefault(target.node.name, (target, []))[1].append(
                    request)
        if not groups:
            return {}, list(requests)
        config = owner.cluster.config
        node_size = config.metadata_node_size
        control_size = config.control_message_size

        def response_size(answer):
            # a dead peer (None) or an all-miss answer still costs a
            # control message; hits ship one node each
            if not answer:
                return control_size
            hits = sum(1 for entry in answer if entry is not PEER_MISS)
            return max(hits * node_size, control_size)

        watermark = self.pool.watermark(blob_id)
        probes = sorted(groups.items())
        stats.probe_rpcs += len(probes)
        answers = yield from owner._rpc_batch(
            [(target, "probe",
              len(probe_requests) * config.metadata_request_size,
              response_size, (blob_id, list(probe_requests), watermark))
             for _name, (target, probe_requests) in probes],
            name="rpc.coop_probe")
        hits: Resolved = {}
        for (_name, (_target, probe_requests)), answer in zip(probes, answers):
            if answer is None:
                # dead peer: the whole probe is a miss
                stats.probe_misses += len(probe_requests)
                continue
            for request, entry in zip(probe_requests, answer):
                if entry is PEER_MISS:
                    stats.probe_misses += 1
                elif request[2] > self.pool.watermark(blob_id):
                    # admission gate on the *receiving* side: never trust
                    # a version this node has not itself observed published
                    stats.rejections += 1
                else:
                    hits[request] = entry
        stats.hits += len(hits)
        return hits, [request for request in requests if request not in hits]

    def served(self):
        directory = self.directory
        return (directory, lambda: directory.stats()["served_hits"],
                self.stats.hits + self.stats.rejections)


class ShardTier(Tier):
    """The authoritative metadata shards: the terminal tier.

    Batched, a level's lookups cost one ``get_nodes`` RPC per responsible
    shard, issued in parallel — O(levels x shards) round-trips; unbatched,
    each lookup costs its own ``get_node`` round-trip (what a peer
    service's read-through issues for its one key).

    A batched leaf lookup carries the runs ``wanted`` names for it
    (:data:`EXTENT_DESCRIPTION_BYTES` each), and the shard answers it with
    the leaf's base chain as well: the links come back as extra hits under
    exactly the keys the walk will look up next, one node size each on the
    wire.  Unbatched lookups stay plain at-or-before lookups.
    """

    name = "shards"
    terminal = True

    def __init__(self, owner, batching: bool = True):
        self.owner = owner
        self.batching = batching
        self.stats = CacheStats(read_rpcs=0)

    def lookup(self, blob_id, requests, wanted=None):
        owner, stats = self.owner, self.stats
        config = owner.cluster.config
        node_size = config.metadata_node_size
        request_size = config.metadata_request_size
        shards = owner.deployment.metadata_providers
        hits: Resolved = {}
        if self.batching:
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
        else:
            for request in requests:
                offset, size, _hint = request
                index = PartitionedMetadataStore.partition_index(
                    blob_id, offset, size, len(shards))
                hits[request] = yield from owner._rpc(
                    shards[index], "get_node", request_size, node_size,
                    blob_id, *request)
                stats.read_rpcs += 1
        stats.lookups += len(requests)
        stats.hits += len(requests)
        return hits, []


def fold(tiers: Sequence[Tier], blob_id: str,
         requests: Sequence[NodeRequest], wanted: Wanted = None):
    """Resolve ``requests`` through non-resident ``tiers`` in order
    (generator): each tier sees what the ones before it could not answer."""
    results: Resolved = {}
    for tier in tiers:
        if not requests:
            break
        hits, requests = yield from tier.lookup(blob_id, requests, wanted)
        results.update(hits)
    return results


class MetadataTierChain:
    """One owner's ordered tiers and the fold over them (module docstring)."""

    def __init__(self, order: List[Tier], name: str = "chain"):
        self.name = name
        #: the list, in lookup order (a wrapper holds what it wraps)
        self.order = order
        #: tiers dropped by :meth:`detach`; their counters stay collectable
        self.detached: List[Tier] = []
        #: deduplicated lookups handed to :meth:`resolve`
        self.lookups = 0

    @property
    def tiers(self) -> List[Tier]:
        """Every tier in lookup order, wrappers followed by what they wrap."""
        flat: List[Tier] = []
        for tier in self.order:
            flat.append(tier)
            flat.extend(getattr(tier, "inner", ()))
        return flat

    def find(self, name: str) -> Optional[Tier]:
        """The tier called ``name`` (detached ones included), if any."""
        for tier in self.tiers + self.detached:
            if tier.name == name:
                return tier
        return None

    def count(self, name: str, counter: str) -> int:
        """One counter of one tier; 0 when the list has no such tier."""
        tier = self.find(name)
        return 0 if tier is None else getattr(tier.stats, counter)

    @property
    def fetched_lookups(self) -> int:
        """Lookups no tier of this chain answered from a cache: fetched
        from a terminal tier, or parked on a fetch somebody else led."""
        tiers = self.tiers + self.detached
        return (sum(tier.stats.hits for tier in tiers if tier.terminal)
                + sum(_parked(tier) for tier in tiers))

    # ------------------------------------------------------------------
    def resolve(self, blob_id: str, requests: Sequence[NodeRequest],
                wanted: Wanted = None):
        """One tree level's lookups → ``{request: node-or-None}`` (generator).

        ``wanted`` maps leaf lookups to the runs the walk wants of them; the
        shards answer those leaves' base chains along, and every fetched
        entry is admitted, so the walk's next levels find the chain in the
        resident tiers.  A chain with no resident tier could keep no link,
        so it asks for none.
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
            fetched = yield from fold(
                [tier for tier in self.order if not tier.resident],
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
        for tier in self.tiers:
            if tier.pool is None:
                kept.append(tier)
            else:
                self.detached.append(tier)
                tier.pool.detach(self.name)  # idempotent
        self.order = kept


def build_chain(owner, *, private: bool = True, capacity=UNSET,
                node_shared=UNSET, cooperative=UNSET) -> MetadataTierChain:
    """The one place a client's tier list is assembled.

    ``owner`` is the client (its node, deployment and RPC helpers);
    arguments left :data:`UNSET` follow the cluster config, and they only
    shape the list: ``private=False`` drops the private tier.  The shards
    are always asked in batches, one ``get_nodes`` RPC per shard and tree
    level, for the lookups the walk issues plus the base chains of the
    leaves among them (:class:`ShardTier`).  The cooperative tier
    needs a pool to route through, so it is off without one; coalescing
    engages with the cooperative tier, which keeps every cooperative-off
    timeline untouched.
    """
    config = owner.cluster.config

    def setting(value, field):
        return getattr(config, field) if value is UNSET else value

    order: List[Tier] = []
    chain = MetadataTierChain(order, name=owner.name)
    if private:
        order.append(PrivateTier(
            capacity=setting(capacity, "metadata_cache_capacity")))
    pool = None
    if setting(node_shared, "shared_metadata_cache"):
        pool = owner.deployment.node_cache(owner.node)
        order.append(NodeTier(pool, owner.name))
    shards = ShardTier(owner)
    if pool is not None and setting(cooperative, "cooperative_cache"):
        order.append(Coalescing(owner, pool, [PeerTier(owner, pool), shards]))
    else:
        order.append(shards)
    return chain


# ----------------------------------------------------------------------
# the lookup partition, for any list
# ----------------------------------------------------------------------
def _parked(tier: Tier) -> int:
    return getattr(tier.stats, "parked", 0)


def partition_problems(chains: Sequence[MetadataTierChain]) -> List[str]:
    """Violations of the N-tier lookup partition, one chain at a time.

    Every lookup handed to a chain is answered by exactly one tier or
    parked on another's fetch: ``total == sum(hits) + parked`` — and while
    the list is as built, tier by tier, ``lookups(i+1) == lookups(i) -
    hits(i) - parked(i)``.
    """
    problems = []
    for chain in chains:
        tiers = chain.tiers
        answered = sum(tier.stats.hits + _parked(tier)
                       for tier in tiers + chain.detached)
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
            reaching = tier.stats.lookups - tier.stats.hits - _parked(tier)
    return problems


def wire_problems(chains: Sequence[MetadataTierChain]) -> List[str]:
    """Violations of service/client conservation over a *complete* client
    set: what each shared service counted must equal what the tiers
    fronting it say they asked of it (:meth:`Tier.served`)."""
    claims: Dict[int, list] = {}
    for chain in chains:
        for tier in chain.tiers + chain.detached:
            claim = tier.served()
            if claim is not None:
                service, counted, received = claim
                claims.setdefault(id(service),
                                  [tier.name, counted, 0])[2] += received
    return [f"{name} tier: services counted {counted()} but their clients "
            f"account for {received}"
            for name, counted, received in claims.values()
            if counted() != received]
