"""Exact ``Communicator.bytes_moved`` accounting of the collectives.

The collective-read scatter ships never-written ranges as compact
``(offset, length)`` hole descriptors — :data:`EXTENT_DESCRIPTION_BYTES`
(16) bytes each — instead of their literal zero payload.  This suite pins
that pricing end to end: every collective charge of a sparse collective
read is recomputed from the raw exchanged items with a reference formula
and must equal, byte for byte, what the communicator charged into
``bytes_moved``.  A regression to literal-zero shipping (or any drift in
the descriptor constant) breaks the equality immediately.

The opening allgather of both sides carries run-length encoded access
descriptions — 32 bytes for a strided run, 16 for a lone extent — and is
pinned the same way: the encoded list is what is exchanged *and* what is
priced.
"""

import random

import pytest

from repro.core.listio import EXTENT_DESCRIPTION_BYTES, encode_extents
from repro.mpi.datatypes import BYTE, Vector
from repro.mpi.launcher import run_mpi_job
from repro.mpi.simcomm import Communicator
from repro.mpiio.adio.collective import _cut_views, _encoded_bytes
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File

from tests.mpiio._collective_testlib import make_quick_deployment

NUM_RANKS = 4
CHUNK = 1024
#: bytes each rank actually writes at the head of its block
WRITE = CHUNK
#: bytes each rank reads back — everything past WRITE is a hole
BLOCK = 4 * CHUNK
FILE_SIZE = NUM_RANKS * BLOCK


def expand_extents(encoded):
    """The ``(offset, size)`` extents :func:`encode_extents` was given (the
    description's wire format, decoded one extent at a time)."""
    extents = []
    for entry in encoded:
        if len(entry) == 2:
            extents.append(entry)
        else:
            offset, size, stride, count = entry
            extents.extend((offset + index * stride, size)
                           for index in range(count))
    return extents


@pytest.fixture
def charge_log(monkeypatch):
    """Record ``(op, charged_bytes, contributions)`` per completed
    collective, with the charge resolved exactly as ``_enter`` does."""
    log = []
    real_enter = Communicator._enter

    def recording_enter(self, op, rank, contribution, payload_bytes,
                        finalize):
        def logging_finalize(contributions):
            resolved = payload_bytes(contributions) \
                if callable(payload_bytes) else payload_bytes
            log.append((op, resolved, dict(contributions)))
            return finalize(contributions)

        result = yield from real_enter(self, op, rank, contribution,
                                       payload_bytes, logging_finalize)
        return result

    monkeypatch.setattr(Communicator, "_enter", recording_enter)
    return log


def _item_wire_bytes(item):
    """Reference price of one scatter item ``(price, cuts, holes)``,
    recomputed from what it ships and ignoring the sender's ``price``:
    the payload bytes, one 16-byte header if there are any, 16 bytes per
    hole descriptor — and nothing else (the payloads carry no offsets, the
    scatter no metadata plan)."""
    _price, cuts, piece_holes = item
    payload = sum(len(data) for data in _cut_views(cuts))
    return (payload + (EXTENT_DESCRIPTION_BYTES if payload else 0)
            + len(piece_holes) * EXTENT_DESCRIPTION_BYTES)


def _reference_bottleneck(contributions, pricer=_item_wire_bytes):
    """The sparse alltoallv cost model, reimplemented independently."""
    load = [0] * NUM_RANKS
    for src in range(NUM_RANKS):
        for dst, item in contributions[src].items():
            if dst == src:
                continue
            nbytes = pricer(item)
            load[src] += nbytes
            load[dst] += nbytes
    return max(load)


def _item_literal_bytes(item):
    """Counterfactual price with holes shipped as literal zeros: the
    written bytes and the zeros as one payload behind one 16-byte header.
    That is never more than one header per written span would cost, so
    beating it is at least as strict as beating that."""
    _price, cuts, piece_holes = item
    literal = (sum(len(data) for data in _cut_views(cuts))
               + sum(length for _offset, length in piece_holes))
    return literal + (EXTENT_DESCRIPTION_BYTES if literal else 0)


def test_collective_read_bytes_moved_exact(charge_log):
    cluster, deployment = make_quick_deployment(chunk_size=CHUNK)
    drivers, marks = {}, {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"acct{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=1)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, "/acct", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        payload = bytes([ctx.rank + 1]) * WRITE
        yield from handle.write_at_all(ctx.rank * BLOCK, payload)
        yield from handle.sync()
        yield from ctx.comm.barrier(ctx.rank)
        # safe point: no collective can complete until every rank enters
        # it, and each rank records before entering the next one
        marks.setdefault("start", (ctx.comm.bytes_moved, len(charge_log)))
        data = yield from handle.read_at_all(ctx.rank * BLOCK, BLOCK)
        assert data[:WRITE] == payload
        assert data[WRITE:] == b"\x00" * (BLOCK - WRITE)
        yield from ctx.comm.barrier(ctx.rank)
        marks.setdefault("end", (ctx.comm.bytes_moved, len(charge_log)))
        yield from handle.close()

    run_mpi_job(cluster, NUM_RANKS, rank_main, node_prefix="acct-rank")

    start_bytes, start_idx = marks["start"]
    end_bytes, end_idx = marks["end"]
    window = charge_log[start_idx:end_idx]
    charged = [entry for entry in window if entry[0] != "barrier"]

    # the read is exactly describe → scatter (version pinning rides the
    # describe allgather; the hint elides the latest RPC; failures would
    # ride the scatter)
    assert [op for op, _, _ in charged] == ["allgather", "alltoallv"]
    (_, describe_bytes, describe_contribs) = charged[0]
    (_, scatter_bytes, scatter_contribs) = charged[1]

    # phase 1: one 16-byte extent description + 8-byte watermark per rank
    assert all(entry[0] == "ok" and len(entry[1]) == 1
               for entry in describe_contribs.values())
    assert describe_bytes == NUM_RANKS * (EXTENT_DESCRIPTION_BYTES + 8)

    # phase 3: every resolver priced each item as what it actually ships,
    # and the charge must equal the descriptor-priced bottleneck
    items = [item for send_map in scatter_contribs.values()
             for item in send_map.values()]
    assert items
    assert [item[0] for item in items] == list(map(_item_wire_bytes, items))
    assert scatter_bytes == _reference_bottleneck(scatter_contribs)
    # the per-rank stats count the same bytes: what left for another rank
    # (plus the opening description) and what arrived from one
    shipped = sum(_item_wire_bytes(item)
                  for src, send_map in scatter_contribs.items()
                  for dst, item in send_map.items() if dst != src)
    stats = [driver.reader.stats for driver in drivers.values()]
    assert sum(entry.bytes_sent for entry in stats) \
        == describe_bytes + shipped
    assert sum(entry.bytes_received for entry in stats) == shipped

    # the scenario genuinely exercised hole elision: each rank's block is
    # three-quarters never-written, and shipping those zeros literally
    # would have cost strictly more than the descriptor pricing did
    hole_bytes = sum(length
                     for send_map in scatter_contribs.values()
                     for _price, _pieces, holes in send_map.values()
                     for _offset, length in holes)
    assert hole_bytes >= (NUM_RANKS - 1) * (BLOCK - WRITE)
    assert scatter_bytes < _reference_bottleneck(
        scatter_contribs, pricer=_item_literal_bytes)

    # and nothing else was charged into bytes_moved inside the window
    assert end_bytes - start_bytes == describe_bytes + scatter_bytes


# ----------------------------------------------------------------------
# the describe phase ships strided runs
# ----------------------------------------------------------------------
def test_a_strided_access_is_one_run_and_an_irregular_one_is_itself():
    strided = [(4096 + index * 65536, 1024) for index in range(256)]
    assert encode_extents(strided) == [(4096, 1024, 65536, 256)]
    assert _encoded_bytes(encode_extents(strided)) \
        == 2 * EXTENT_DESCRIPTION_BYTES
    # equal sizes at uneven strides, equal strides at uneven sizes, and a
    # two-element "run": none of them is a run
    irregular = [(0, 8), (16, 8), (40, 8), (64, 4), (80, 8), (96, 2)]
    assert encode_extents(irregular) == irregular
    assert _encoded_bytes(irregular) \
        == EXTENT_DESCRIPTION_BYTES * len(irregular)
    # a run embedded between lone extents, zero-size entries, descending
    # and zero strides all survive the round trip
    mixed = ([(5, 3)] + [(100 + 10 * index, 4) for index in range(5)]
             + [(7, 0), (900, 4), (800, 4), (700, 4), (3, 1), (3, 1), (3, 1)])
    assert encode_extents(mixed) == [(5, 3), (100, 4, 10, 5), (7, 0),
                                     (900, 4, -100, 3), (3, 1, 0, 3)]
    assert expand_extents(encode_extents(mixed)) == mixed
    assert encode_extents([]) == [] == expand_extents([])


@pytest.mark.parametrize("seed", range(25))
def test_encoding_round_trips_and_never_costs_more(seed):
    rng = random.Random(seed)
    extents = []
    while len(extents) < 60:
        if rng.random() < 0.4:
            offset, size = rng.randrange(10_000), rng.randrange(0, 50)
            stride = rng.randrange(-64, 256)
            extents.extend((offset + index * stride, size)
                           for index in range(rng.randint(2, 9))
                           if offset + index * stride >= 0)
        else:
            extents.append((rng.randrange(10_000), rng.randrange(0, 50)))
    encoded = encode_extents(extents)
    assert expand_extents(encoded) == extents
    assert _encoded_bytes(encoded) <= EXTENT_DESCRIPTION_BYTES * len(extents)
    assert all(len(entry) == 2 or entry[3] >= 3 for entry in encoded)


@pytest.mark.parametrize("block", [CHUNK // 4, 640])
def test_collective_write_bytes_moved_exact(charge_log, block):
    """Interleaved blocks, one aggregator: each rank's description is one
    32-byte run, the exchange runs once per stripe row of the aggregator's
    domain and moves the other three ranks' pieces — cut where a block
    straddles a row edge (the 640-byte blocks do, the quarter-chunk ones
    never) — at payload + 16 bytes each, and ``bytes_sent`` counts exactly
    what the communicator charged."""
    blocks = 4
    cluster, deployment = make_quick_deployment(chunk_size=CHUNK)
    drivers, marks = {}, {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"acct{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=1)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, "/acct", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        handle.set_view(ctx.rank * block, BYTE,
                        Vector(blocks, block, NUM_RANKS * block, BYTE))
        yield from ctx.comm.barrier(ctx.rank)
        marks.setdefault("start", (ctx.comm.bytes_moved, len(charge_log)))
        yield from handle.write_at_all(
            0, bytes([ctx.rank + 1]) * (blocks * block))
        yield from ctx.comm.barrier(ctx.rank)
        marks.setdefault("end", (ctx.comm.bytes_moved, len(charge_log)))
        yield from handle.close()

    run_mpi_job(cluster, NUM_RANKS, rank_main, node_prefix="acct-rank")

    start_bytes, start_idx = marks["start"]
    end_bytes, end_idx = marks["end"]
    charged = [entry for entry in charge_log[start_idx:end_idx]
               if entry[0] != "barrier"]
    row = len(deployment.data_providers) * CHUNK
    rounds = -(-NUM_RANKS * blocks * block // row)
    assert rounds > 1
    assert [op for op, _, _ in charged] == \
        ["allgather"] + ["alltoallv"] * rounds + ["allgather"]
    (_, describe_bytes, describe_contribs) = charged[0]
    exchange_bytes = sum(nbytes for _, nbytes, _ in charged[1:-1])
    (_, closing_bytes, _) = charged[-1]

    # the encoded list is what was exchanged, not only what was priced
    for rank, entry in describe_contribs.items():
        assert entry == ("ok", [(rank * block, block, NUM_RANKS * block,
                                 blocks)])
    assert describe_bytes == NUM_RANKS * 2 * EXTENT_DESCRIPTION_BYTES
    # rank 0 aggregates: three ranks ship four blocks each to it, a block
    # that crosses k row edges as k + 1 pieces
    pieces = 0
    for rank in range(1, NUM_RANKS):
        for index in range(blocks):
            first = (index * NUM_RANKS + rank) * block
            cuts = (first + block - 1) // row - first // row
            pieces += block + (cuts + 1) * EXTENT_DESCRIPTION_BYTES
    assert (pieces > (NUM_RANKS - 1) * blocks
            * (block + EXTENT_DESCRIPTION_BYTES)) == (block == 640)
    assert exchange_bytes == pieces
    assert closing_bytes == 64 * NUM_RANKS
    assert end_bytes - start_bytes == \
        describe_bytes + exchange_bytes + closing_bytes
    stats = [driver.aggregator.stats for driver in drivers.values()]
    assert sum(entry.bytes_sent for entry in stats) \
        == describe_bytes + pieces
    assert sum(entry.bytes_received for entry in stats) == pieces
