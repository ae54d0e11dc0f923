"""Golden transcript of the segment-tree read walk.

The property tests check that a read plan yields the right *bytes*; the
metadata tier chain, its cache admissions and the RPCs it issues depend on
more than that — on which lookups each level names and in which order.
This module pins that order: for fixed-seed write histories it records,
per read, every level's ``ReadPlanner.pending()`` list, then ``levels``,
``nodes_fetched`` and every extent of the finished plan.

The histories are built to reach every branch of the walk: deep
partial-leaf base-version chains (many small writes into a few hot
leaves), multi-run wanted lists (overlapping and adjacent runs that
normalize together, empty runs that vanish), never-written ranges, inner
lookups that resolve to ``None`` and leaves whose ``base_version`` is
``None``.

The fixture is re-recorded only by a change that means to alter the walk::

    PYTHONPATH=src python -m tests.blobseer.test_read_walk_transcript --record
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.chunk import ChunkKey
from repro.blobseer.metadata.segment_tree import (
    ReadPlanner,
    build_leaf_segments,
    build_write_metadata,
    split_vector_into_pieces,
)
from repro.blobseer.metadata.store import MetadataStore
from repro.core.listio import IOVector
from repro.core.regions import RegionList

FIXTURE = Path(__file__).with_name("read_walk_transcript.ndjson")
SEEDS = range(20)


def build_history(seed):
    """A blob, its metadata store and the number of written versions."""
    rng = random.Random(seed)
    chunk = rng.choice([8, 16, 32])
    leaves = rng.choice([1, 2, 8, 16, 32])
    blob = BlobDescriptor.create(f"walk{seed}", size=leaves * chunk,
                                 chunk_size=chunk)
    # writes stay below ``written`` so the top of the blob is never
    # written: inner lookups there resolve to None
    written = max(chunk, blob.capacity * rng.choice([1, 2, 3]) // 4)
    # most writes hit a window of two leaves: long base-version chains
    hot = rng.randrange(0, written, chunk)
    store = MetadataStore()
    versions = rng.randint(3, 12)
    for version in range(1, versions + 1):
        pairs = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.7:
                offset = hot + rng.randrange(2 * chunk)
            else:
                offset = rng.randrange(written)
            offset = min(offset, written - 1)
            size = rng.randint(1, min(2 * chunk, written - offset))
            pairs.append((offset, bytes([version]) * size))
        pieces = split_vector_into_pieces(blob, IOVector.for_write(pairs))
        for index, piece in enumerate(pieces):
            piece.chunk = ChunkKey(f"w{version}", index)
            piece.provider_id = f"p{rng.randrange(4)}"
        nodes = build_write_metadata(blob, version, version - 1,
                                     build_leaf_segments(blob, pieces))
        for node in nodes:
            if version == 1 and node.is_leaf and seed % 2:
                # "never written before": zero-fill without a lookup
                node = dataclasses.replace(node, base_version=None)
            store.put_node(node)
    return blob, store, versions


def wanted_lists(seed, blob):
    """Fixed-seed read accesses: the whole blob, then multi-run lists."""
    rng = random.Random(seed + 10_000)
    capacity = blob.capacity
    accesses = [[(0, capacity)], [(0, 0)]]
    for _ in range(4):
        runs = []
        for _ in range(rng.randint(1, 6)):
            offset = rng.randrange(capacity)
            size = rng.randint(0, min(3 * blob.chunk_size, capacity - offset))
            runs.append((offset, size))
        if rng.random() < 0.5 and runs[-1][1]:
            # an adjacent run: normalizes into its neighbour
            offset, size = runs[-1]
            if offset + size < capacity:
                runs.append((offset + size, 1))
        accesses.append(runs)
    return accesses


def transcript(blob, store, version, runs):
    """What one read's walk asked for, level by level, and what it found."""
    planner = ReadPlanner(blob, version, RegionList(runs))
    levels = []
    while not planner.done:
        requests = planner.pending()
        levels.append([list(request) for request in requests])
        planner.advance({request: store.get_at_or_before(blob.blob_id,
                                                         *request)
                         for request in requests})
    plan = planner.plan()
    return {
        "version": version,
        "runs": [list(run) for run in runs],
        "pending": levels,
        "levels": plan.levels,
        "nodes_fetched": plan.nodes_fetched,
        "extents": [[extent.offset, extent.length,
                     None if extent.chunk is None
                     else [extent.chunk.writer, extent.chunk.sequence],
                     extent.chunk_offset, extent.provider_id]
                    for extent in plan.extents],
    }


def record_all():
    records = []
    for seed in SEEDS:
        blob, store, versions = build_history(seed)
        for version in range(versions + 1):
            for runs in wanted_lists(seed * 100 + version, blob):
                records.append({"seed": seed,
                                **transcript(blob, store, version, runs)})
    return records


def load_fixture():
    with FIXTURE.open() as handle:
        return [json.loads(line) for line in handle]


@pytest.fixture(scope="module")
def recorded():
    return load_fixture()


def test_the_fixture_reaches_every_branch_of_the_walk(recorded):
    deep_chain = multi_run = zero = none_lookup = False
    for record in recorded:
        deep_chain |= record["levels"] >= 8
        multi_run |= len(record["runs"]) > 3
        zero |= any(extent[2] is None for extent in record["extents"])
        none_lookup |= record["nodes_fetched"] < sum(
            len(level) for level in record["pending"])
    assert deep_chain and multi_run and zero and none_lookup


@pytest.mark.parametrize("seed", SEEDS)
def test_the_walk_reproduces_its_transcript(recorded, seed):
    blob, store, versions = build_history(seed)
    expected = [record for record in recorded if record["seed"] == seed]
    actual = [{"seed": seed, **transcript(blob, store, version, runs)}
              for version in range(versions + 1)
              for runs in wanted_lists(seed * 100 + version, blob)]
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.blobseer.test_read_walk_transcript "
                 "--record")
    with FIXTURE.open("w") as handle:
        for record in record_all():
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
