"""The collective write runs in stripe-row rounds.

An aggregator's file domain is cut into sub-stripes of whole stripe rows
(data providers x chunk size) — one row where that already gives a disk a
run worth positioning for, as on the ``FAST_SEEK`` disks most of these tests
use; round *k* exchanges every aggregator's *k*-th sub-stripe, and the
aggregator uploads it while the group exchanges round *k + 1*.  The round
count follows from the deployment alone, so the same input run against more
providers is the single-round reference: these tests pin that rounds change
*when* bytes reach the disks and nothing about what is stored.
"""

import math
import random
from dataclasses import replace

import pytest

from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.core.listio import IOVector
from repro.mpi.datatypes import BYTE, Vector
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.collective import _round_bytes
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.obs.critpath import SpanDag, critical_path, operation_report
from repro.vstore.client import VectoredClient
from tests._oracle import serial_oracle_vectors
from tests.mpiio._collective_testlib import read_back_latest

CHUNK = 1024
PATH = "/rounds"
#: disks that position in a microsecond: one row of 1 KiB chunks is worth a
#: round, so a domain runs in as many rounds as it has stripe rows
FAST_SEEK = ClusterConfig(disk_overhead=1e-6)


def run_collective(vectors, num_providers, num_aggregators, file_size,
                   config=None, seed=5):
    """One ``write_at_all``-shaped collective of raw vectors, one per rank."""
    cluster = Cluster(config=config or FAST_SEEK, seed=seed)
    deployment = BlobSeerDeployment(cluster, num_providers=num_providers,
                                    num_metadata_providers=2,
                                    chunk_size=CHUNK)
    served = []
    for provider in deployment.data_providers.values():
        def recording(items, _real=provider.put_chunks):
            served.append(cluster.sim.now)
            stored = yield from _real(items)
            return stored
        provider.put_chunks = recording
    placements = []
    real_allocate = deployment.provider_manager.allocate

    def counting(sizes, writer=None):
        placements.append(writer)
        chosen = yield from real_allocate(sizes, writer)
        return chosen
    deployment.provider_manager.allocate = counting
    drivers, comms = {}, []

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=num_aggregators)
        drivers[ctx.rank] = driver
        comms.append(ctx.comm)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=file_size)
        yield from driver.write_vector_all(PATH, vectors[ctx.rank],
                                           atomic=False, rank=ctx.rank,
                                           comm=ctx.comm)
        yield from handle.close()

    run_mpi_job(cluster, len(vectors), rank_main)
    return {"cluster": cluster, "deployment": deployment, "drivers": drivers,
            # open barrier + describe + closing around the exchange rounds
            "rounds": comms[0].collectives_completed - 3,
            "placements": sorted(placements),
            "first_upload_at": min(served)}


def stored_layout(deployment):
    """What the collective left behind, placement aside: every chunk's size
    and every written leaf's ``(rel_offset, length)`` segments."""
    chunk_sizes = sorted(len(data)
                         for provider in deployment.data_providers.values()
                         for data in provider.store._chunks.values())
    leaves = {}
    for shard in deployment.metadata_providers:
        for nodes in shard.store._nodes.values():
            for node in nodes:
                if node.is_leaf and node.segments:
                    leaves[node.key.offset] = [
                        (segment.rel_offset, segment.length)
                        for segment in node.segments]
    return chunk_sizes, leaves


def interleaved(num_ranks, blocks, block):
    """Rank r owns blocks b with b % num_ranks == r — a dense dump."""
    return [IOVector.for_write(
        [((index * num_ranks + rank) * block, bytes([rank + 1]) * block)
         for index in range(blocks)]) for rank in range(num_ranks)]


# ----------------------------------------------------------------------
# (a) the overlap, on the simulated clock
# ----------------------------------------------------------------------
def test_uploads_start_while_later_rounds_are_still_exchanged():
    """16 ranks, 4 aggregators, 64 KiB domains over 4 providers: 16 rounds.
    The disks see their first byte before the last exchange round ends, and
    earlier than when the same domains fit one row (64 providers) and the
    whole shuffle has to finish first."""
    num_ranks, blocks, block = 16, 16, 1024
    file_size = num_ranks * blocks * block
    vectors = interleaved(num_ranks, blocks, block)
    traced = replace(FAST_SEEK, tracing=True)
    rounds = run_collective(vectors, 4, 4, file_size, config=traced)
    single = run_collective(vectors, 64, 4, file_size, config=traced)
    assert (rounds["rounds"], single["rounds"]) == (16, 1)

    def spans(run, name):
        return [span for span in run["cluster"].obs.tracer.spans
                if span.name == name]

    exchanges = spans(rounds, "collective.write.exchange_data")
    assert sorted({span.args["round"] for span in exchanges}) \
        == list(range(16))
    last_exchange_ends = max(span.end for span in exchanges)
    assert rounds["first_upload_at"] < last_exchange_ends
    assert rounds["first_upload_at"] < single["first_upload_at"]
    assert min(span.end for span in spans(single,
                                          "collective.write.exchange_data")) \
        < single["first_upload_at"]


def test_round_uploads_hang_off_the_write_op_and_the_layers_still_tile():
    """Through the File layer the staging spans parent to the rank's
    ``file.write_at_all`` op, overlap the exchange spans beside them, and
    the critical-path layers still partition every op's window exactly."""
    num_ranks, blocks, block = 8, 16, 1024
    file_size = num_ranks * blocks * block
    cluster = Cluster(config=replace(FAST_SEEK, tracing=True), seed=5)
    deployment = BlobSeerDeployment(cluster, num_providers=4,
                                    num_metadata_providers=2,
                                    chunk_size=CHUNK)

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=2)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=file_size)
        handle.set_view(ctx.rank * block, BYTE,
                        Vector(blocks, block, num_ranks * block, BYTE))
        yield from handle.write_at_all(0, bytes([ctx.rank + 1])
                                       * (blocks * block))
        yield from handle.close()

    run_mpi_job(cluster, num_ranks, rank_main)
    tracer = cluster.obs.tracer
    assert [span for span in tracer.spans if span.end is None] == []
    by_id = {span.span_id: span for span in tracer.spans}
    uploads = [span for span in tracer.spans if span.name == "commit.upload"]
    ahead = [span for span in uploads
             if by_id[span.parent_id].name == "file.write_at_all"]
    # 2 aggregators x 16 rounds, all but the last staged ahead
    assert (len(uploads), len(ahead)) == (32, 30)
    exchanges = [span for span in tracer.spans
                 if span.name == "collective.write.exchange_data"]
    for span in ahead:
        parent = by_id[span.parent_id]
        assert parent.start <= span.start and span.end <= parent.end
        assert any(other.lane == span.lane and other.start < span.end
                   and span.start < other.end for other in exchanges)
    ops = operation_report(tracer)["operations"]
    assert ops["file.write_at_all"]["count"] == num_ranks
    for entry in ops.values():
        assert math.isclose(entry["attributed_s"], entry["end_to_end_s"],
                            rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("network_model", ["bottleneck", "queued"])
def test_the_stripe_control_plane_is_off_every_write_critical_path(
        network_model):
    """A checkpoint-shaped dump (16 KiB chunks on the default 1 ms disks,
    four rounds): each aggregator's ``allocate`` runs beside round 0's
    exchange and its ``put_nodes`` beside its last rounds' uploads, so no
    rank's ``file.write_at_all`` critical path passes through either."""
    num_ranks, blocks, block = 16, 16, 16 * 1024
    file_size = num_ranks * blocks * block
    cluster = Cluster(config=ClusterConfig(network_model=network_model,
                                           tracing=True), seed=5)
    deployment = BlobSeerDeployment(cluster, num_providers=8,
                                    num_metadata_providers=2,
                                    chunk_size=block)

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=4)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=file_size)
        handle.set_view(ctx.rank * block, BYTE,
                        Vector(blocks, block, num_ranks * block, BYTE))
        yield from handle.write_at_all(0, bytes([ctx.rank + 1])
                                       * (blocks * block))
        yield from handle.close()

    run_mpi_job(cluster, num_ranks, rank_main)
    tracer = cluster.obs.tracer
    names = [span.name for span in tracer.spans]
    assert max(span.args["round"] for span in tracer.spans
               if span.name == "collective.write.exchange_data") == 3
    control = {"commit.put_nodes", "rpc.put_nodes", "rpc.allocate"}
    assert control <= set(names)
    ops = operation_report(tracer)["operations"]
    assert ops["file.write_at_all"]["count"] == num_ranks
    dag = SpanDag(tracer.spans)
    on_paths = {segment.name
                for root in dag.roots(["file.write_at_all"])
                for segment in critical_path(dag, root)}
    assert "rpc.put_chunks" in on_paths
    assert not on_paths & control


def test_a_round_is_sized_to_be_worth_a_disks_positioning_time():
    """What the aggregators send one disk in a round queues up as one run;
    a round is the fewest whole stripe rows that make that run stream for
    as long as the disk takes to position (1 ms at 70 MiB/s: 71.7 KiB)."""
    default = ClusterConfig()
    # the checkpoint shape: 16 aggregators x 16 KiB a disk — one row
    assert _round_bytes(8, 16 * 1024, 16, default) == 8 * 16 * 1024
    # one aggregator, 4 KiB chunks: 18 rows before a disk gets 71.7 KiB
    assert _round_bytes(2, 4096, 1, default) == 2 * 4096 * 18
    # twice the aggregators, half the rows
    assert _round_bytes(2, 4096, 2, default) == 2 * 4096 * 9
    assert _round_bytes(3, CHUNK, 1, FAST_SEEK) == 3 * CHUNK
    assert _round_bytes(3, CHUNK, 1, replace(default, disk_overhead=0.0)) \
        == 3 * CHUNK

    # end to end: the 16-round dump above, on disks that take 50 us to
    # position (3.6 KiB at 70 MiB/s: one 1 KiB row from each of the four
    # aggregators is worth a round), on disks that take 100 us (7.2 KiB: two
    # rows) — and on the default ones, where so small a dump gains nothing
    # from uploading early and runs as the single shuffle it always was
    num_ranks, blocks, block = 16, 16, 1024
    file_size = num_ranks * blocks * block
    vectors = interleaved(num_ranks, blocks, block)
    for overhead, rounds in ((50e-6, 16), (100e-6, 8), (1e-3, 1)):
        run = run_collective(vectors, 4, 4, file_size,
                             config=replace(default, disk_overhead=overhead))
        assert run["rounds"] == rounds
        assert read_back_latest(run["cluster"], run["deployment"], PATH,
                                file_size) \
            == serial_oracle_vectors(vectors, file_size)
        assert run["deployment"].version_manager.manager.tickets_assigned == 4


# ----------------------------------------------------------------------
# (b) conformance at the round edges
# ----------------------------------------------------------------------
def test_overlap_across_a_round_edge_resolves_in_rank_order():
    """Three ranks overlap on the bytes around the first row edge (3 KiB
    into a domain that starts at 0): every piece is cut there, the later
    rank still wins on both sides."""
    file_size, row = 8 * 1024, 3 * CHUNK
    vectors = [
        IOVector.for_write([(0, b"z"), (row - 600, b"a" * 1200)]),
        IOVector.for_write([(row - 200, b"b" * 700), (row + 550, b"B" * 40)]),
        IOVector.for_write([(row - 100, b"c" * 150)]),
    ]
    run = run_collective(vectors, 3, 1, file_size)
    assert run["rounds"] == 2
    assert read_back_latest(run["cluster"], run["deployment"], PATH,
                            file_size) \
        == serial_oracle_vectors(vectors, file_size)


def test_a_sparse_dump_stores_no_zero_filled_byte():
    """Blocks with gaps between them, over several rounds: the providers
    hold exactly the written bytes — a hole inside a sub-stripe, or a whole
    sub-stripe nobody wrote, costs nothing."""
    file_size = 24 * 1024
    vectors = [IOVector.for_write(
        [(rank * 300 + index * 2500, bytes([rank + 1]) * 200)
         for index in range(9) if index not in (3, 4)])
        for rank in range(4)]
    written = sum(vector.total_bytes() for vector in vectors)
    run = run_collective(vectors, 2, 2, file_size)
    assert run["rounds"] > 2
    stored = sum(provider.store.stored_bytes()
                 for provider in run["deployment"].data_providers.values())
    assert stored == written
    assert read_back_latest(run["cluster"], run["deployment"], PATH,
                            file_size) \
        == serial_oracle_vectors(vectors, file_size)


@pytest.mark.parametrize("seed", range(4))
def test_rounds_store_the_chunks_a_single_round_stores(seed):
    """Same input, 3 providers (several rounds) against 32 (one round): the
    chunk count, every chunk's size and every leaf's segments agree, and so
    do tickets, snapshots and placement requests — a stripe is placed whole
    by one ``allocate`` however many rounds upload it, and the ranks that
    aggregate nothing spend no control RPC at all: rounds move the uploads,
    not the layout."""
    rng = random.Random(seed)
    file_size = 16 * 1024
    vectors = [IOVector.for_write(
        [(rng.randrange(file_size - 1500), bytes([rank * 16 + index + 1])
          * rng.randint(1, 1500)) for index in range(rng.randint(1, 5))])
        for rank in range(4)]
    multi = run_collective(vectors, 3, 2, file_size)
    single = run_collective(vectors, 32, 2, file_size)
    assert multi["rounds"] > 1 and single["rounds"] == 1
    assert stored_layout(multi["deployment"]) \
        == stored_layout(single["deployment"])
    for run in (multi, single):
        manager = run["deployment"].version_manager.manager
        assert manager.tickets_assigned == 2
        assert manager.latest_published(PATH) == 2
        assert sum(driver.aggregator.stats.stripes_committed
                   for driver in run["drivers"].values()) == 2
        assert run["placements"] == ["rank0", "rank2"]
        assert [run["drivers"][rank].client.write_control_rpcs
                for rank in (1, 3)] == [0, 0]


# ----------------------------------------------------------------------
# (c) file bytes equal the serial oracle, whatever the round count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("num_providers,rounds", [(10, 1), (5, 2), (2, 5)])
def test_seeded_patterns_match_the_serial_oracle(seed, num_providers, rounds):
    """20 KiB over 2 aggregators is 10 KiB a domain: 1, 2 or 5 stripe rows
    of it.  Rank 0 pins the hull to the whole file; everything else is
    seeded — overlaps within a vector and across ranks, empty-handed ranks,
    pieces straddling row and domain edges."""
    rng = random.Random(7000 + seed)
    file_size = 20 * 1024
    vectors = []
    for rank in range(rng.randint(3, 6)):
        pairs = [(rng.randrange(file_size - 2000),
                  bytes([1 + (rank * 37 + index * 11) % 255])
                  * rng.randint(1, 2000))
                 for index in range(rng.randint(0, 6))]
        if rank == 0:
            pairs = [(0, b"\xfe"), (file_size - 1, b"\xff")] + pairs
        vectors.append(IOVector.for_write(pairs))
    run = run_collective(vectors, num_providers, 2, file_size, seed=seed)
    assert run["rounds"] == rounds
    assert read_back_latest(run["cluster"], run["deployment"], PATH,
                            file_size) \
        == serial_oracle_vectors(vectors, file_size)
    manager = run["deployment"].version_manager.manager
    assert manager.pending_versions(PATH) == []
    assert manager.latest_published(PATH) == manager.tickets_assigned == 2


# ----------------------------------------------------------------------
# (d) an independent write keeps its timeline
# ----------------------------------------------------------------------
def test_an_independent_commit_keeps_the_single_shot_timeline():
    """``commit`` is ``stage`` + ``publish`` and nothing in between: two
    clients' overlapping vectored writes finish at the simulated instant,
    and after the number of events, they did before the engine was split."""
    cluster = Cluster(config=ClusterConfig(), seed=11)
    deployment = BlobSeerDeployment(cluster, num_providers=4,
                                    num_metadata_providers=2,
                                    chunk_size=64 * 1024)
    clients = [VectoredClient(deployment, cluster.add_node(f"w{index}"),
                              name=f"w{index}") for index in range(2)]

    def writer(index):
        client = clients[index]
        if index == 0:
            yield from client.create_blob("b", 1024 * 1024)
        else:
            yield cluster.sim.timeout(0.001)
        receipt = yield from client.vwrite_and_wait(
            "b", [(index * 100_000 + piece * 150_000, bytes([index + 1])
                   * 120_000) for piece in range(3)])
        return receipt.finished_at

    processes = [cluster.sim.process(writer(index)) for index in range(2)]
    cluster.sim.run_all()
    # recorded at the commit before the split (7dd8537)
    assert [process.value for process in processes] \
        == [0.006633909761570895, 0.008954573791280335]
    assert cluster.sim.processed_events == 137
