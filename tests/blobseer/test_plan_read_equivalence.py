"""Property test: the cached/batched read planner is extent-identical to the
uncached one-lookup-per-node baseline.

For arbitrary randomized write histories and arbitrary read ranges, planning
a read through

* the scalar ``get_node`` callback with no cache (the baseline),
* the batched per-level ``get_nodes`` callback,
* the metadata tier chain ``[private, store]`` — the fold the simulated
  client runs, here over a warm private tier shared across the reads,
* the same chain with the leaf runs shipped along, so that the store
  answers each leaf lookup with its base chain (what a metadata shard does)

must produce byte-identical extent lists — same offsets, lengths, chunks,
chunk offsets and providers.  The cache and the chain prefixes may only
remove round-trips, never change what a snapshot reads.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.chunk import ChunkKey
from repro.blobseer.metadata.cache import CacheStats
from repro.blobseer.metadata.segment_tree import (
    ReadPlanner,
    build_leaf_segments,
    build_write_metadata,
    leaf_runs,
    plan_read,
    split_vector_into_pieces,
)
from repro.blobseer.metadata.store import MetadataStore
from repro.blobseer.metadata.tiers import (
    MetadataTierChain,
    PrivateTier,
    Tier,
    partition_problems,
)
from repro.core.listio import IOVector
from repro.core.regions import RegionList
from tests.blobseer.test_read_walk_transcript import (
    SEEDS,
    build_history,
    wanted_lists,
)

CHUNK = 32
BLOB = BlobDescriptor.create("equiv", size=16 * CHUNK, chunk_size=CHUNK)


@st.composite
def write_histories(draw):
    num_writes = draw(st.integers(1, 6))
    history = []
    for _ in range(num_writes):
        num_regions = draw(st.integers(1, 4))
        pairs = []
        for _ in range(num_regions):
            offset = draw(st.integers(0, BLOB.capacity - 1))
            size = draw(st.integers(1, min(3 * CHUNK, BLOB.capacity - offset)))
            fill = draw(st.integers(1, 255))
            pairs.append((offset, bytes([fill]) * size))
        history.append(pairs)
    return history


@st.composite
def read_accesses(draw):
    num_regions = draw(st.integers(1, 4))
    regions = []
    for _ in range(num_regions):
        offset = draw(st.integers(0, BLOB.capacity - 1))
        size = draw(st.integers(1, BLOB.capacity - offset))
        regions.append((offset, size))
    return RegionList(regions)


def populate(history):
    store = MetadataStore()
    for version, pairs in enumerate(history, start=1):
        pieces = split_vector_into_pieces(BLOB, IOVector.for_write(pairs))
        for index, piece in enumerate(pieces):
            piece.chunk = ChunkKey(f"v{version}", index)
            piece.provider_id = "p0"
        for node in build_write_metadata(BLOB, version, version - 1,
                                         build_leaf_segments(BLOB, pieces)):
            store.put_node(node)
    return store


class StoreTier(Tier):
    """The terminal tier of a simulator-free chain: one level's lookups
    answered straight from ``store``, one round-trip per batch, with the
    base chains of the leaves ``wanted`` names runs for."""

    name = "store"
    terminal = True

    def __init__(self, store):
        self.store = store
        self.stats = CacheStats(read_rpcs=0)

    def lookup(self, blob_id, requests, wanted=None):
        self.stats.lookups += len(requests)
        self.stats.hits += len(requests)
        self.stats.read_rpcs += 1
        nodes, links = self.store.get_nodes(
            blob_id, requests,
            None if wanted is None else [wanted.get(r) for r in requests])
        return {**dict(zip(requests, nodes)), **dict(links)}, []
        yield  # a generator like every non-resident tier; it never waits


def plan_through(chain, version, regions, blob=BLOB, chained=False):
    """Plan a read by folding each level over ``chain`` (no simulator: no
    tier of it ever yields); ``chained`` ships the leaf runs along."""
    planner = ReadPlanner(blob, version, regions)
    while not planner.done:
        level = chain.resolve(blob.blob_id, planner.pending(),
                              leaf_runs(planner) if chained else None)
        try:
            next(level)
        except StopIteration as resolved:
            planner.advance(resolved.value)
        else:
            raise AssertionError("a simulator-free chain waited")
    return planner.plan()


def extent_tuples(plan):
    return [(e.offset, e.length, e.chunk, e.chunk_offset, e.provider_id)
            for e in plan.extents]


@settings(max_examples=60, deadline=None)
@given(history=write_histories(), data=st.data())
def test_batched_and_cached_plans_match_baseline(history, data):
    store = populate(history)

    def get_node(offset, size, hint):
        return store.get_at_or_before(BLOB.blob_id, offset, size, hint)

    def get_nodes(requests):
        return store.get_nodes(BLOB.blob_id, requests)[0]

    shards = StoreTier(store)
    chain = MetadataTierChain([PrivateTier(), shards])
    chain_shards = StoreTier(store)
    prefixed = MetadataTierChain([PrivateTier(), chain_shards])
    for _ in range(data.draw(st.integers(1, 3))):
        version = data.draw(st.integers(0, len(history)))
        regions = data.draw(read_accesses())

        baseline = plan_read(BLOB, version, regions, get_node)
        batched = plan_read(BLOB, version, regions, get_nodes=get_nodes)
        rpcs = shards.stats.read_rpcs
        cached = plan_through(chain, version, regions)
        chain_rpcs = chain_shards.stats.read_rpcs
        chained = plan_through(prefixed, version, regions, chained=True)

        expected = extent_tuples(baseline)
        assert extent_tuples(batched) == expected
        assert extent_tuples(cached) == expected
        assert extent_tuples(chained) == expected
        assert batched.nodes_fetched == baseline.nodes_fetched
        assert cached.nodes_fetched == baseline.nodes_fetched
        assert chained.nodes_fetched == baseline.nodes_fetched
        assert chained.levels == baseline.levels
        # batching collapses round-trips to at most one per level
        assert batched.metadata_rpcs <= batched.levels
        assert batched.metadata_rpcs <= baseline.metadata_rpcs
        # the private tier and the chain prefixes only ever remove
        # round-trips
        assert shards.stats.read_rpcs - rpcs <= batched.metadata_rpcs
        assert chain_shards.stats.read_rpcs - chain_rpcs \
            <= batched.metadata_rpcs
    assert partition_problems([chain, prefixed]) == []


def plan_fields(plan):
    return extent_tuples(plan), plan.levels, plan.nodes_fetched


@pytest.mark.parametrize("seed", SEEDS)
def test_chain_prefixes_plan_like_the_plain_walk_on_chain_heavy_histories(
        seed):
    """The transcript's histories (deep partial-leaf base chains): a store
    that answers every leaf lookup with its chain prefix gives the plain
    walk's plan, and a cold read reaches it at most once per tree level —
    every chain level after the leaf's is a private-tier hit."""
    blob, store, versions = build_history(seed)
    depth = (blob.capacity // blob.chunk_size).bit_length() - 1
    levels = rounds = 0
    for version in range(versions + 1):
        for runs in wanted_lists(seed * 100 + version, blob):
            regions = RegionList(runs)
            plain = plan_read(
                blob, version, regions,
                lambda *request: store.get_at_or_before(blob.blob_id,
                                                        *request))
            shards = StoreTier(store)
            chain = MetadataTierChain([PrivateTier(), shards])
            chained = plan_through(chain, version, regions, blob,
                                   chained=True)
            assert plan_fields(chained) == plan_fields(plain)
            assert shards.stats.read_rpcs <= depth + 1
            assert partition_problems([chain]) == []
            levels += plain.levels
            rounds += shards.stats.read_rpcs
    # the histories' chains are real: shipping them saves round trips
    assert rounds < levels


@settings(max_examples=40, deadline=None)
@given(history=write_histories(), access=read_accesses())
def test_warm_cache_answers_repeat_reads_without_lookups(history, access):
    store = populate(history)
    version = len(history)

    cache, shards = PrivateTier(), StoreTier(store)
    chain = MetadataTierChain([cache, shards])
    cold = plan_through(chain, version, access)
    hits, misses = cache.stats.hits, cache.stats.misses
    rpcs = shards.stats.read_rpcs
    warm = plan_through(chain, version, access)

    assert extent_tuples(warm) == extent_tuples(cold)
    # the repeat read resolves every node from the cache: zero RPCs
    assert shards.stats.read_rpcs == rpcs
    assert cache.stats.misses == misses
    assert cache.stats.hits > hits
    assert partition_problems([chain]) == []
