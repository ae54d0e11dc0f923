"""The metadata tier chain: two fixed caches, then the shards.

A published snapshot's segment-tree nodes are immutable, so the question
"who may answer the lookup ``(blob, offset, size, version)``, and who may
keep the answer" has a single rule: anything at or below a published
watermark may be served forever and is never invalidated.  A client's
lookups ask, in this order,

* its ``private`` :class:`~repro.blobseer.metadata.cache.MetadataNodeCache`
  (if it keeps one) — it dies with the client, so it may hold write-through
  entries of a version still being published;
* its compute node's ``pool``, a
  :class:`~repro.blobseer.metadata.sharedcache.NodeCacheService` (if the
  client shares one) — it outlives its clients, so it admits only at or
  below the published watermark it was told, and a writer's own leaves
  reach it only through :meth:`MetadataTierChain.admit_published`;
* the authoritative shards (:meth:`MetadataTierChain.fetch`).

Every lookup is a leaf lookup at the read version
(:class:`~repro.blobseer.metadata.segment_tree.ReadPlanner`), or a link of
a leaf's base chain.  Callers hand the chain one round's lookups and call
:meth:`MetadataTierChain.resolve`.  The caches answer from memory at no
simulated cost, one key at a time, so their recency order follows the
walk's; a pool hit is promoted into the private cache.  The shards cost
simulated time and take the round's residual misses as a batch: the walk
names the runs it wants of each leaf (``wanted``), and the shard answers
the leaf's base chain in the same round trip.  Once a round is resolved
every entry it fetched — chain links included — is offered to both caches
(:meth:`MetadataTierChain.admit`).

Each of the three counts the ``lookups`` it was asked and the ``hits`` it
answered (:class:`~repro.blobseer.metadata.cache.CacheStats`; the pool's,
as this client saw it, in ``pool_stats``), so one identity covers every
chain (:func:`partition_problems`), and a pool's clients reconcile with it
(:func:`wire_problems`).
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


class MetadataTierChain:
    """One client's caches, its shards and the fold over them (module
    docstring).

    ``owner`` is the client (its cluster, deployment and RPC helper);
    ``private`` and ``pool`` are the caches it keeps, ``None`` for one it
    does not.  The chain attaches its owner to the pool.
    """

    def __init__(self, owner, name: str,
                 private: Optional[MetadataNodeCache] = None,
                 pool: Optional[NodeCacheService] = None):
        self.owner = owner
        self.name = name
        self.private = private
        #: the node-shared pool, until :meth:`detach`
        self.pool = pool
        #: the pool :meth:`detach` left, for :func:`wire_problems`
        self.left_pool: Optional[NodeCacheService] = None
        #: what this chain asked of the pool and what the pool answered
        self.pool_stats = CacheStats()
        #: the shards answer every lookup that reaches them
        self.shard_stats = CacheStats(read_rpcs=0)
        #: deduplicated lookups handed to :meth:`resolve`
        self.lookups = 0
        if pool is not None:
            pool.attach(name)

    @property
    def fetched_lookups(self) -> int:
        """Lookups neither cache answered: the ones the shards fetched."""
        return self.shard_stats.hits

    # ------------------------------------------------------------------
    def resolve(self, blob_id: str, requests: Sequence[NodeRequest],
                wanted: Wanted = None):
        """One walk round's lookups → ``{request: node-or-None}`` (generator).

        ``wanted`` maps leaf lookups to the runs the walk wants of them; the
        shards answer those leaves' base chains along, and every fetched
        entry is admitted, so the walk's next rounds find the chain in the
        caches.  A chain with no cache could keep no link, so it asks for
        none.
        """
        self.lookups += len(requests)
        private, pool, pool_stats = self.private, self.pool, self.pool_stats
        results: Resolved = {}
        pending: List[NodeRequest] = []
        # pool hits are promoted into the private cache (this client's
        # repeats stay private) one run at a time, in order.  A round's
        # lookups name distinct leaves, so a run's promotions never insert
        # a later lookup's key; only in a bounded cache may they evict or
        # reorder one it holds, so such a lookup promotes the run first —
        # the cache ends as if each hit had been promoted at once.
        promoted: list = []
        bounded = private is not None and private.capacity is not None
        for request in requests:
            offset, size, hint = request
            if private is not None:
                if promoted and bounded \
                        and (blob_id, offset, size, hint) in private:
                    private.put_many(blob_id, promoted)
                    promoted = []
                found, node = private.get(blob_id, offset, size, hint)
                if found:
                    results[request] = node
                    continue
            if pool is not None:
                pool_stats.lookups += 1
                found, node = pool.get(blob_id, offset, size, hint)
                if found:
                    pool_stats.hits += 1
                    if private is not None:
                        promoted.append((request, node))
                    results[request] = node
                    continue
            pending.append(request)
        if promoted:
            private.put_many(blob_id, promoted)
        if pending:
            cached = private is not None or pool is not None
            fetched = yield from self.fetch(blob_id, pending,
                                            wanted if cached else None)
            self.shard_stats.lookups += len(pending)
            self.shard_stats.hits += len(pending)
            entries = [(request, fetched[request]) for request in pending]
            if len(fetched) > len(pending):  # the base-chain links
                asked = set(pending)
                entries += [entry for entry in fetched.items()
                            if entry[0] not in asked]
            self.admit(blob_id, entries)
            results.update(fetched)
        return results

    def fetch(self, blob_id: str, requests: Sequence[NodeRequest],
              wanted: Wanted = None):
        """Ask the shards (generator): ``{request: node-or-None}`` for
        every request, plus the base-chain links of the leaves ``wanted``
        names runs for, in one ``get_nodes`` RPC per shard, all in parallel.
        A lookup costs its wanted runs (:data:`EXTENT_DESCRIPTION_BYTES`
        each) up, and a link one node size down."""
        owner = self.owner
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
        self.shard_stats.read_rpcs += len(by_shard)
        return hits

    # ------------------------------------------------------------------
    def prime(self, blob_id: str, entries) -> bool:
        """Write-through, before publication is known: offer the writer's
        own nodes to the private cache, which dies with the owner; returns
        whether there is one."""
        if self.private is None:
            return False
        self.private.put_many(blob_id, entries)
        return True

    def admit_published(self, blob_id: str, entries) -> None:
        """Write-through, once ``entries``' version is known published:
        offer them to the pool :meth:`prime` held them back from."""
        if self.pool is not None:
            publish = self.pool.publish
            for (offset, size, hint), node in entries:
                publish(blob_id, offset, size, hint, node)

    def admit(self, blob_id: str, entries) -> None:
        """Offer ``((offset, size, hint), node-or-None)`` pairs of a
        published snapshot to both caches, in order."""
        self.prime(blob_id, entries)
        self.admit_published(blob_id, entries)

    def note_published(self, blob_id: str, version: int) -> None:
        """Forward a publication observation: the pool opens up to it."""
        if self.pool is not None:
            self.pool.note_published(blob_id, version)

    def detach(self) -> None:
        """Leave the node-shared pool; later lookups skip it.

        Published entries this owner contributed stay resident for the
        node's other tenants — safe precisely because the pool never
        admitted anything from an unpublished version.
        """
        if self.pool is not None:
            self.pool.detach(self.name)
            self.left_pool, self.pool = self.pool, None


# ----------------------------------------------------------------------
# the lookup partition
# ----------------------------------------------------------------------
def partition_problems(chains: Sequence[MetadataTierChain]) -> List[str]:
    """Violations of the lookup partition, one chain at a time.

    Every lookup handed to a chain is answered by exactly one tier:
    ``total == sum(hits)`` — and while the chain keeps its pool, tier by
    tier, ``lookups(i+1) == lookups(i) - hits(i)``.
    """
    problems = []
    for chain in chains:
        private = chain.private.stats if chain.private is not None else None
        tiers = [("private", private),
                 ("node", chain.pool_stats if chain.pool is not None else None),
                 ("shards", chain.shard_stats)]
        answered = (chain.pool_stats.hits + chain.shard_stats.hits
                    + (private.hits if private is not None else 0))
        if chain.lookups != answered:
            problems.append(
                f"{chain.name}: {chain.lookups} lookups but its tiers "
                f"account for {answered}")
        if chain.left_pool is not None:
            continue
        reaching = chain.lookups
        for name, stats in tiers:
            if stats is None:
                continue
            if stats.lookups != reaching:
                problems.append(
                    f"{chain.name}: {stats.lookups} lookups at tier "
                    f"{name!r}, {reaching} fell through to it")
            reaching = stats.lookups - stats.hits
    return problems


def wire_problems(chains: Sequence[MetadataTierChain]) -> List[str]:
    """Violations of service/client conservation over a *complete* client
    set: what each node pool counted must equal what the chains attached
    to it say they asked of it."""
    claims: Dict[int, list] = {}
    for chain in chains:
        pool = chain.pool if chain.pool is not None else chain.left_pool
        if pool is not None:
            claims.setdefault(id(pool), [pool, 0])[1] += \
                chain.pool_stats.lookups
    return [f"node tier: services counted {pool.stats.lookups} but their "
            f"clients account for {received}"
            for pool, received in claims.values()
            if pool.stats.lookups != received]
