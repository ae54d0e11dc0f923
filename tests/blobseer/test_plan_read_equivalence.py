"""Property test: the leaf-start read walk gives every snapshot's bytes the
same chunks the root-down descent does.

:class:`~repro.blobseer.metadata.segment_tree.ReadPlanner` looks every leaf a
read touches up at the read version and follows partially covered leaves
down their base chains; the segment tree's interior nodes are never read.
That is sound because every version of a range key lives on one shard,
every ticket's base is its predecessor and a failed write is rolled back
before its ticket is aborted: the newest leaf at or before the read version
*is* the leaf the snapshot's tree reaches.  :func:`descent` keeps the
root-down walk the planner replaced as the reference, and the two must
agree on the merged byte → chunk map (the leaf-start walk splits a
never-written range per leaf, so extents are compared after merging
contiguous ones) on

* random write histories and read accesses (hypothesis),
* the read-walk transcript's chain-heavy histories, at every version,
* the final metadata stores of pinned fuzz seeds — an aborted, rolled-back
  collective stripe among them — read whole at every published version.

Among themselves, the ways of driving the planner — the scalar
``get_node`` callback, the batched ``get_nodes`` callback, the metadata
tier chain ``[private, store]`` with and without the leaf runs shipped
along — must give identical extent lists; the cache and the base-chain
links may only remove round trips.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.chunk import ChunkKey
from repro.blobseer.deployment import BlobSeerDeployment
from repro.blobseer.metadata.cache import CacheStats
from repro.blobseer.metadata.segment_tree import (
    ReadPlanner,
    build_leaf_segments,
    build_write_metadata,
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
from repro.fuzz import runner
from repro.fuzz.generator import generate_scenario
from tests.blobseer.test_read_walk_transcript import (
    SEEDS,
    build_history,
    wanted_lists,
)

CHUNK = 32
BLOB = BlobDescriptor.create("equiv", size=16 * CHUNK, chunk_size=CHUNK)


def descent(blob, version, regions, get_node):
    """The root-down walk: from the root at ``version`` follow each child
    reference's version hint, then each leaf's base chain.  Returns its
    extents as ``(offset, length, chunk, chunk_offset, provider)``."""
    extents = []
    runs = [(region.offset, region.end) for region in regions.normalized()]
    frontier = [((0, blob.capacity, version), runs)] if runs else []
    while frontier:
        request, runs = frontier.pop()
        offset, size, _hint = request
        node = get_node(*request)
        if node is not None and not node.is_leaf:
            for child in (node.left, node.right):
                low, high = child.offset, child.offset + child.size
                clipped = [(max(start, low), min(end, high))
                           for start, end in runs if start < high and end > low]
                if clipped:
                    frontier.append(
                        ((low, child.size, child.version_hint), clipped))
            continue
        leftover = runs
        if node is not None:
            leftover = []
            for start, end in runs:
                for segment in node.segments:
                    seg_start = offset + segment.rel_offset
                    low = max(start, seg_start)
                    high = min(end, offset + segment.rel_end)
                    if low >= high:
                        continue
                    if low > start:
                        leftover.append((start, low))
                    extents.append((low, high - low, segment.chunk,
                                    segment.chunk_offset + low - seg_start,
                                    segment.provider_id))
                    start = high
                if start < end:
                    leftover.append((start, end))
            if leftover and node.base_version is not None:
                frontier.append(((offset, size, node.base_version), leftover))
                continue
        extents += [(start, end - start, None, 0, None)
                    for start, end in leftover]
    return sorted(extents)


def merged(extents):
    """Extents with contiguous neighbours joined: two zero-fills, or two
    consecutive ranges of one chunk on one provider."""
    out = []
    for offset, length, chunk, chunk_offset, provider in extents:
        if out:
            last = out[-1]
            if (last[0] + last[1] == offset and last[2] == chunk
                    and last[4] == provider
                    and (chunk is None or last[3] + last[1] == chunk_offset)):
                out[-1] = (last[0], last[1] + length) + last[2:]
                continue
        out.append((offset, length, chunk, chunk_offset, provider))
    return out


def extent_tuples(plan):
    return [(e.offset, e.length, e.chunk, e.chunk_offset, e.provider_id)
            for e in plan.extents]


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
    """The terminal tier of a simulator-free chain: one round's lookups
    answered straight from ``store``, one round trip per batch, with the
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
        return {**dict(zip(requests, nodes)), **dict(links)}
        yield  # a generator like every non-resident tier; it never waits


def plan_through(chain, version, regions, blob=BLOB, chained=False):
    """Plan a read by folding each round over ``chain`` (no simulator: no
    tier of it ever yields); ``chained`` ships the leaf runs along."""
    planner = ReadPlanner(blob, version, regions)
    while not planner.done:
        level = chain.resolve(blob.blob_id, planner.pending(),
                              planner.wanted() if chained else None)
        try:
            next(level)
        except StopIteration as resolved:
            planner.advance(resolved.value)
        else:
            raise AssertionError("a simulator-free chain waited")
    return planner.plan()


@settings(max_examples=60, deadline=None)
@given(history=write_histories(), data=st.data())
def test_every_way_of_driving_the_walk_matches_the_descent(history, data):
    store = populate(history)

    def get_node(offset, size, version):
        return store.get_at_or_before(BLOB.blob_id, offset, size, version)

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
        assert merged(expected) == merged(
            descent(BLOB, version, regions, get_node))
        assert extent_tuples(batched) == expected
        assert extent_tuples(cached) == expected
        assert extent_tuples(chained) == expected
        assert batched.nodes_fetched == baseline.nodes_fetched
        assert cached.nodes_fetched == baseline.nodes_fetched
        assert chained.nodes_fetched == baseline.nodes_fetched
        assert chained.levels == baseline.levels
        # batching collapses round trips to at most one per round
        assert batched.metadata_rpcs <= batched.levels
        assert batched.metadata_rpcs <= baseline.metadata_rpcs
        # the private tier and the base-chain links only ever remove
        # round trips (a read costs one only while its cache is cold: a
        # cached leaf's base chain was never asked of a shard)
        assert shards.stats.read_rpcs - rpcs <= batched.metadata_rpcs
        assert chain_shards.stats.read_rpcs - chain_rpcs \
            <= batched.metadata_rpcs
    assert partition_problems([chain, prefixed]) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_the_walk_matches_the_descent_on_chain_heavy_histories(seed):
    """The transcript's histories (deep partial-leaf base chains, leaves
    whose base is ``None``): same merged bytes as the descent at every
    version, and a cold read through a chain whose store answers each leaf
    with its base chain costs one round trip — every later round of the
    walk is a private-tier hit."""
    blob, store, versions = build_history(seed)

    def get_node(offset, size, version):
        return store.get_at_or_before(blob.blob_id, offset, size, version)

    levels = rounds = 0
    for version in range(versions + 1):
        for runs in wanted_lists(seed * 100 + version, blob):
            regions = RegionList(runs)
            plain = plan_read(blob, version, regions, get_node)
            assert merged(extent_tuples(plain)) == merged(
                descent(blob, version, regions, get_node))
            shards = StoreTier(store)
            chain = MetadataTierChain([PrivateTier(), shards])
            chained = plan_through(chain, version, regions, blob,
                                   chained=True)
            assert extent_tuples(chained) == extent_tuples(plain)
            assert (chained.levels, chained.nodes_fetched) \
                == (plain.levels, plain.nodes_fetched)
            assert shards.stats.read_rpcs <= 1
            assert partition_problems([chain]) == []
            levels += plain.levels
            rounds += shards.stats.read_rpcs
    # the histories' chains are real: shipping them saves round trips
    assert rounds < levels


#: pinned fuzz seeds whose final stores the walk is checked on: 19 aborts
#: a collective stripe after part of its metadata was stored (the rollback
#: path), 70 and 172 order two overlapping ``atomic_write``s by ticket, 3
#: writes under a cache thrasher, 108 loses a resolver mid-read
FUZZ_SEEDS = (3, 14, 19, 70, 108, 172)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_the_walk_matches_the_descent_on_fuzzed_stores(seed, monkeypatch):
    """Every published version of a fuzz run's final store, read whole:
    the leaf-start walk and the descent name the same chunk for every
    byte."""
    deployments = []

    class Recorded(BlobSeerDeployment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            deployments.append(self)

    monkeypatch.setattr(runner, "BlobSeerDeployment", Recorded)
    result = runner.execute_scenario(generate_scenario(seed))
    assert not result.flagged, result.all_anomalies()
    (deployment,) = deployments
    manager = deployment.version_manager.manager
    blob = manager.get_blob(runner.PATH)
    store = deployment.metadata_store

    def get_node(offset, size, version):
        return store.get_at_or_before(blob.blob_id, offset, size, version)

    whole = RegionList([(0, blob.capacity)])
    latest = manager.latest_published(runner.PATH)
    assert latest >= 2
    for version in range(latest + 1):
        plan = plan_read(blob, version, whole, get_node)
        assert merged(extent_tuples(plan)) == merged(
            descent(blob, version, whole, get_node)), f"version {version}"


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
    # the repeat read resolves every leaf from the cache: zero RPCs
    assert shards.stats.read_rpcs == rpcs
    assert cache.stats.misses == misses
    assert cache.stats.hits > hits
    assert partition_problems([chain]) == []
