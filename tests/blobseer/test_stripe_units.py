"""Stripe-unit placement: a write's pieces are packed into units of at most
one chunk, the *unit* is what the provider manager places, and every piece
follows its unit — so a noncontiguous write of many small pieces reaches few
providers with one large I/O each, while round robin still spreads the units
of successive writes over all of them — each writer resuming after its own
last unit, so that the arrival order of concurrent writers decides nothing.
"""

import pytest
from hypothesis import given, strategies as st

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.deployment import BlobSeerDeployment
from repro.blobseer.metadata.segment_tree import (
    pack_pieces_into_stripe_units,
    split_vector_into_pieces,
)
from repro.blobseer.provider_manager import ProviderManager
from repro.cluster import Cluster, ClusterConfig
from repro.core.listio import IOVector
from repro.vstore.client import VectoredClient

KiB = 1024
CHUNK = 64 * KiB


def pieces_of(pairs, chunk_size=CHUNK, size=64 * CHUNK):
    blob = BlobDescriptor.create("units", size=size, chunk_size=chunk_size)
    return split_vector_into_pieces(blob, IOVector.for_write(pairs))


def units_of(pieces, chunk_size=CHUNK):
    """The packing as lists of piece lengths, one list per unit."""
    unit_starts, unit_sizes = pack_pieces_into_stripe_units(pieces,
                                                            chunk_size)
    assert len(unit_starts) == len(unit_sizes)
    units = [[piece.length for piece in pieces[start:stop]]
             for start, stop in zip(unit_starts,
                                    unit_starts[1:] + [len(pieces)])]
    assert [sum(unit) for unit in units] == unit_sizes
    return units


class TestPacking:
    def test_no_pieces_no_units(self):
        assert pack_pieces_into_stripe_units([], CHUNK) == ([], [])

    def test_a_chunk_sized_piece_is_its_own_unit(self):
        pieces = pieces_of([(0, b"a" * (3 * CHUNK))])
        assert units_of(pieces) == [[CHUNK], [CHUNK], [CHUNK]]

    def test_small_pieces_fill_a_unit_exactly(self):
        """The tile-IO rank-write: 64 rows of 2 KiB are two full units."""
        pieces = pieces_of([(row * 16 * KiB, b"r" * (2 * KiB))
                            for row in range(64)])
        assert units_of(pieces) == [[2 * KiB] * 32, [2 * KiB] * 32]

    def test_mixed_pieces_of_misaligned_regions(self):
        """EXP1's access: 64 KiB regions that start mid-chunk split 32/32;
        a half never joins a full chunk, two halves share a unit."""
        pieces = pieces_of([(0, b"a" * CHUNK),
                            (4 * CHUNK + 32 * KiB, b"b" * CHUNK),
                            (8 * CHUNK + 32 * KiB, b"c" * CHUNK)])
        assert [piece.length for piece in pieces] \
            == [64 * KiB, 32 * KiB, 32 * KiB, 32 * KiB, 32 * KiB]
        assert units_of(pieces) == [[64 * KiB], [32 * KiB, 32 * KiB],
                                    [32 * KiB, 32 * KiB]]

    def test_a_piece_that_would_overflow_opens_the_next_unit(self):
        pieces = pieces_of([(0, b"a" * 40), (100, b"b" * 40), (200, b"c" * 20),
                            (300, b"d" * 1)], chunk_size=100, size=1600)
        assert units_of(pieces, chunk_size=100) == [[40, 40, 20], [1]]

    @given(st.lists(st.tuples(st.integers(0, 16 * 64 - 1), st.integers(1, 200)),
                    min_size=0, max_size=40),
           st.sampled_from([16, 64, 100]))
    def test_units_partition_the_pieces_in_order(self, regions, chunk_size):
        size = 16 * 64 + 200
        pieces = pieces_of([(offset, b"x" * length)
                            for offset, length in regions],
                           chunk_size=chunk_size, size=size)
        unit_starts, unit_sizes = pack_pieces_into_stripe_units(pieces,
                                                                chunk_size)
        units = units_of(pieces, chunk_size)
        # a partition in vector order: the first unit starts at the first
        # piece and every unit after it later, none empty, so concatenating
        # the units gives the pieces back
        assert unit_starts[:1] == [0] * bool(pieces)
        assert all(earlier < later for earlier, later
                   in zip(unit_starts, unit_starts[1:]))
        assert [length for unit in units for length in unit] \
            == [piece.length for piece in pieces]
        assert sum(unit_sizes) == sum(length for _offset, length in regions)
        assert all(0 < total <= chunk_size for total in unit_sizes)
        # greedy: a unit closed only because the next piece would overflow it
        for unit, following in zip(units, units[1:]):
            assert sum(unit) + following[0] > chunk_size


# ----------------------------------------------------------------------
# the engine places units, on a real deployment
# ----------------------------------------------------------------------
ROW = 2 * KiB
ROWS = 64
BLOB = "tiles"


def tile_pairs(base, fill):
    """One tile-IO rank-write: 64 rows of 2 KiB, a 16 KiB row stride."""
    return [(base + row * 16 * KiB, bytes([fill + row % 7]) * ROW)
            for row in range(ROWS)]


def deploy():
    cluster = Cluster(config=ClusterConfig(), seed=1)
    deployment = BlobSeerDeployment(cluster, num_providers=8,
                                    num_metadata_providers=2,
                                    chunk_size=CHUNK)
    client = VectoredClient(deployment, cluster.add_node("compute"),
                            name="tile-writer")
    run(cluster, client.create_blob(BLOB, 4 * ROWS * 16 * KiB,
                                    chunk_size=CHUNK))
    return cluster, deployment, client


def run(cluster, generator):
    return cluster.sim.run(stop_event=cluster.sim.process(generator))


def put_chunks_calls(deployment):
    """provider id -> ``put_chunks`` RPCs it has served."""
    return {provider_id: service.calls["put_chunks"]
            for provider_id, service in deployment.data_providers.items()
            if service.calls.get("put_chunks")}


class TestEnginePlacesUnits:
    def test_a_strided_tile_write_reaches_two_providers(self):
        cluster, deployment, client = deploy()
        pairs = tile_pairs(0, fill=1)
        receipt = run(cluster, client.vwrite_and_wait(BLOB, pairs))

        # 128 KiB in 64 pieces = 2 stripe units = 2 RPCs = 2 disk I/Os ...
        assert put_chunks_calls(deployment) == {"bs-data0": 1, "bs-data1": 1}
        assert cluster.stats()["disk_operations"] == 2
        # ... of 32 chunks each: a unit is a placement group, not a chunk
        assert receipt.chunks == ROWS
        assert [deployment.data_providers[name].store.chunk_count()
                for name in ("bs-data0", "bs-data1")] == [32, 32]

        regions = [(offset, len(data)) for offset, data in pairs]
        assert run(cluster, client.vread(BLOB, regions)) \
            == [data for _offset, data in pairs]

    def test_round_robin_still_spreads_across_writes(self):
        cluster, deployment, client = deploy()
        run(cluster, client.vwrite_and_wait(BLOB, tile_pairs(0, fill=1)))
        run(cluster, client.vwrite_and_wait(BLOB, tile_pairs(2 * KiB, fill=9)))
        assert put_chunks_calls(deployment) == {
            "bs-data0": 1, "bs-data1": 1, "bs-data2": 1, "bs-data3": 1}

    def test_the_engine_names_the_writer(self):
        """w0, w1, then w1 before w0: w0 still resumes after its own units."""
        cluster, deployment, client = deploy()
        other = VectoredClient(deployment, cluster.add_node("compute1"),
                               name="other-writer")
        for fill, writer in enumerate((client, other, other, client), 1):
            run(cluster, writer.vwrite_and_wait(BLOB, tile_pairs(0, fill=fill)))
        assert put_chunks_calls(deployment) == {
            "bs-data0": 1, "bs-data1": 1, "bs-data2": 2, "bs-data3": 2,
            "bs-data4": 1, "bs-data5": 1}


class TestRoundRobinResumesPerWriter:
    @pytest.mark.parametrize("second_round", [("w0", "w1"), ("w1", "w0")])
    def test_concurrent_writers_land_the_same_in_either_arrival_order(
            self, second_round):
        """Two writers of two units each, whose second requests race: with
        one shared cursor the loser of the race would swap providers with
        the winner (and a later read would queue on other disks)."""
        manager = ProviderManager()
        for index in range(8):
            manager.register(f"p{index}")
        placed = {writer: [manager.allocate([CHUNK, CHUNK], writer)]
                  for writer in ("w0", "w1")}
        for writer in second_round:
            placed[writer].append(manager.allocate([CHUNK, CHUNK], writer))
        assert placed == {"w0": [["p0", "p1"], ["p2", "p3"]],
                          "w1": [["p2", "p3"], ["p4", "p5"]]}
        # a newcomer starts where the shared cursor stands: after all 8 units
        assert manager.allocate([CHUNK], "w2") == ["p0"]
