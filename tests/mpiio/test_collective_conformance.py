"""Collective-I/O conformance suite: three write modes, one byte result.

The acceptance gate of the collective-buffering subsystem.  The same
randomized noncontiguous access pattern — per-rank region sets that overlap
*across* ranks — is written through three independent paths:

* ``serial``      — one client applies every rank's vector immediately, in
                    rank order (the reference the backend itself provides);
* ``per-rank``    — an MPI job where each rank queues its regions in its own
                    :class:`~repro.blobseer.writepath.coalescer.WriteCoalescer`
                    and the ranks flush in rank order (PR 2's path, ordered
                    so cross-rank overlaps resolve deterministically);
* ``collective``  — an MPI job issuing one ``write_at_all`` through two-phase
                    collective buffering (aggregator exchange + stripe
                    commits).

All three must produce byte-identical file contents, which must also equal
the pure in-memory serial application of the pattern in rank order — the
semantics :mod:`repro.mpiio.adio.collective` promises.
"""

import pytest

from repro.core.regions import RegionList
from repro.errors import MPIIOError
from repro.mpi.datatypes import BYTE
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.collective import (
    aggregator_ranks,
    partition_file_domain,
    resolve_aggregator_count,
)
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.vstore.client import VectoredClient
from tests._oracle import random_pattern, rank_view, serial_oracle
from tests.mpiio._collective_testlib import make_quick_deployment, read_back_latest

FILE_SIZE = 16 * 1024
CHUNK = 1024
PATH = "/conformance"


def make_deployment(seed=3, network_model="bottleneck"):
    return make_quick_deployment(seed=seed, chunk_size=CHUNK,
                                 network_model=network_model)


def read_back(cluster, deployment, file_size=FILE_SIZE):
    return read_back_latest(cluster, deployment, PATH, file_size)


# ----------------------------------------------------------------------
# the three write modes
# ----------------------------------------------------------------------
def write_serial(pattern, network_model="bottleneck"):
    """Reference mode: immediate vectored writes in rank order, one client."""
    cluster, deployment = make_deployment(network_model=network_model)
    client = VectoredClient(deployment, cluster.add_node("serial"),
                            name="serial")

    def scenario():
        yield from client.create_blob(PATH, FILE_SIZE, chunk_size=CHUNK)
        for regions in pattern:
            if regions:
                yield from client.vwrite_and_wait(PATH, regions)

    process = cluster.sim.process(scenario())
    cluster.sim.run(stop_event=process)
    return read_back(cluster, deployment)


def write_per_rank_coalesced(pattern, network_model="bottleneck"):
    """PR-2 mode: per-rank queues, flushed in rank order for determinism."""
    cluster, deployment = make_deployment(network_model=network_model)
    num_ranks = len(pattern)

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        for offset, payload in pattern[ctx.rank]:
            yield from handle.write_at(offset, payload)
        # rank-order publication: rank r syncs only after r-1 published, so
        # cross-rank overlaps resolve exactly as the serial reference
        for turn in range(ctx.size):
            if turn == ctx.rank:
                yield from handle.sync()
            yield from ctx.comm.barrier(ctx.rank)
        yield from handle.close()

    run_mpi_job(cluster, num_ranks, rank_main)
    return read_back(cluster, deployment)


def write_collective(pattern, num_aggregators, network_model="bottleneck"):
    """Tentpole mode: one ``write_at_all`` through two-phase buffering."""
    cluster, deployment = make_deployment(network_model=network_model)
    num_ranks = len(pattern)
    drivers = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=num_aggregators)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        pairs = pattern[ctx.rank]
        if pairs:
            filetype, payload = rank_view(pairs)
            handle.set_view(0, BYTE, filetype)
            yield from handle.write_at_all(0, payload)
        else:
            yield from handle.write_at_all(0, b"")
        yield from handle.close()

    run_mpi_job(cluster, num_ranks, rank_main)
    return read_back(cluster, deployment), deployment, drivers


# ----------------------------------------------------------------------
# the conformance gate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("num_ranks,num_aggregators", [
    (2, 1), (3, 2), (4, 2), (5, 3), (4, 4),
])
def test_three_write_modes_produce_identical_bytes(seed, num_ranks,
                                                   num_aggregators):
    pattern = random_pattern(seed * 101 + num_ranks, num_ranks)
    expected = serial_oracle(pattern)

    serial = write_serial(pattern)
    per_rank = write_per_rank_coalesced(pattern)
    collective, _deployment, _drivers = write_collective(
        pattern, num_aggregators)

    assert serial == expected, "serial backend mode diverged from the oracle"
    assert per_rank == expected, "per-rank coalesced mode diverged"
    assert collective == expected, "collective-buffered mode diverged"


@pytest.mark.parametrize("seed,num_ranks,num_aggregators", [
    (7, 3, 2), (23, 4, 2), (42, 5, 3),
])
def test_write_modes_conform_under_queued_network(seed, num_ranks,
                                                  num_aggregators):
    """The same gate under ``network_model="queued"``: per-link FIFO queues
    and switch tiers shape timing only — every write mode still lands
    exactly the oracle bytes."""
    pattern = random_pattern(seed * 101 + num_ranks, num_ranks)
    expected = serial_oracle(pattern)

    assert write_serial(pattern, network_model="queued") == expected
    assert write_per_rank_coalesced(pattern, network_model="queued") \
        == expected
    collective, _deployment, _drivers = write_collective(
        pattern, num_aggregators, network_model="queued")
    assert collective == expected


def test_collective_commits_one_batch_per_active_aggregator():
    """N ranks, A aggregators -> at most A snapshots for the collective,
    attributed with all N logical writes."""
    num_ranks, num_aggregators = 6, 2
    pattern = random_pattern(7, num_ranks, empty_rank_chance=0.0)
    collective, deployment, drivers = write_collective(
        pattern, num_aggregators)
    assert collective == serial_oracle(pattern)

    manager = deployment.version_manager.manager
    assert manager.latest_published(PATH) <= num_aggregators
    assert manager.pending_versions(PATH) == []
    committed = [driver.aggregator.stats.stripes_committed
                 for driver in drivers.values()]
    assert sum(committed) == manager.latest_published(PATH)
    attributed = sum(driver.aggregator.stats.attributed_writes
                     for driver in drivers.values())
    assert attributed == num_ranks
    # aggregation concentrates the control plane on the aggregators
    owners = set(aggregator_ranks(num_ranks, num_aggregators))
    for rank, driver in drivers.items():
        if rank not in owners:
            assert driver.client.write_control_rpcs == 0
            assert driver.client.metadata_put_rpcs == 0


def test_overlapping_ranks_resolve_in_rank_order():
    """Every rank's block covers the next two ranks' starts: assembling the
    stripe must leave, on each overlapped byte, the highest rank's data —
    the serial application in rank order."""
    num_ranks = 4
    pattern = [[(rank * CHUNK + 100, bytes([rank + 1]) * (3 * CHUNK))]
               for rank in range(num_ranks)]
    collective, _deployment, _drivers = write_collective(pattern, 2)
    assert collective == serial_oracle(pattern)
    for rank in range(1, num_ranks):
        assert collective[rank * CHUNK + 100] == rank + 1
        assert collective[rank * CHUNK + 99] == rank


def test_an_aggregator_commits_the_runs_of_its_stripe_not_the_pieces():
    """Interleaved sub-chunk blocks, overlaps and gaps: the dump stores the
    union of the written regions — no byte twice, no zero fill — cut into
    the chunk-aligned pieces of that union, however many pieces the ranks
    shipped."""
    num_ranks, block = 4, CHUNK // 4
    # dense: 32 interleaved quarter-chunk blocks tile [0, 8 KiB) exactly
    pattern = [[((k * num_ranks + rank) * block, bytes([rank + 1]) * block)
                for k in range(8)]
               for rank in range(num_ranks)]
    # sparse: an overlap inside one chunk, a write across a chunk boundary
    pattern[0].append((10 * CHUNK + 100, b"\xa0" * 300))
    pattern[1].append((10 * CHUNK + 300, b"\xa1" * 300))
    pattern[2].append((12 * CHUNK - 50, b"\xa2" * 100))
    collective, deployment, _drivers = write_collective(pattern, 2)
    assert collective == serial_oracle(pattern)

    shipped = [(offset, len(payload))
               for pairs in pattern for offset, payload in pairs]
    union = RegionList(shipped).normalized()
    assert union.as_tuples() == [(0, 8 * CHUNK), (10 * CHUNK + 100, 500),
                                 (12 * CHUNK - 50, 100)]
    stats = deployment.stats()
    assert stats["stored_bytes"] == union.total_bytes() \
        < sum(size for _offset, size in shipped)
    assert stats["chunks"] == sum(len(run.chunk_aligned_pieces(CHUNK))
                                  for run in union) == 11 < len(shipped)


def test_collective_write_then_read_elides_the_latest_rpc():
    """The watermark piggybacked on the closing exchange serves every rank's
    read-back without a ``latest`` round-trip (version-hint satellite)."""
    num_ranks = 4
    pattern = random_pattern(11, num_ranks, empty_rank_chance=0.0)
    cluster, deployment = make_deployment()
    drivers = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=2)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        filetype, payload = rank_view(pattern[ctx.rank])
        handle.set_view(0, BYTE, filetype)
        yield from handle.write_at_all(0, payload)
        handle.set_view(0, BYTE, BYTE)
        data = yield from handle.read_at(0, FILE_SIZE)
        yield from handle.close()
        return data

    result = run_mpi_job(cluster, num_ranks, rank_main)
    expected = serial_oracle(pattern)
    assert all(data == expected for data in result.results)
    for driver in drivers.values():
        assert driver.client.latest_rpcs_elided == 1


def test_publication_stays_in_ticket_order_under_collectives():
    """Several collective rounds: every ticket publishes, in order, with no
    gaps and no stalls (the backend's serialization invariant)."""
    num_ranks = 4
    cluster, deployment = make_deployment()

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=2)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        for round_index in range(3):
            pattern = random_pattern(round_index, num_ranks,
                                     empty_rank_chance=0.0)
            filetype, payload = rank_view(pattern[ctx.rank])
            handle.set_view(0, BYTE, filetype)
            yield from handle.write_at_all(0, payload)
        yield from handle.close()

    run_mpi_job(cluster, num_ranks, rank_main)
    manager = deployment.version_manager.manager
    assert manager.pending_versions(PATH) == []
    assert manager.latest_published(PATH) == manager.tickets_assigned
    assert manager.tickets_aborted == 0


def test_atomic_mode_collectives_bypass_aggregation():
    """Atomic collectives keep one-rank-one-snapshot (no torn rank writes)."""
    num_ranks = 3
    pattern = random_pattern(13, num_ranks, empty_rank_chance=0.0)
    cluster, deployment = make_deployment()
    drivers = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  collective_buffering=True,
                                  collective_aggregators=1)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        handle.set_atomicity(True)
        filetype, payload = rank_view(pattern[ctx.rank])
        handle.set_view(0, BYTE, filetype)
        yield from handle.write_at_all(0, payload)
        yield from handle.close()

    run_mpi_job(cluster, num_ranks, rank_main)
    # one snapshot per rank, none through the aggregator
    manager = deployment.version_manager.manager
    assert manager.latest_published(PATH) == num_ranks
    for driver in drivers.values():
        assert driver.aggregator.stats.collectives == 0


def test_collectively_empty_write_is_a_no_op():
    cluster, deployment = make_deployment()

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  collective_buffering=True)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        written = yield from handle.write_at_all(0, b"")
        yield from handle.close()
        return written

    result = run_mpi_job(cluster, 3, rank_main)
    assert result.results == [0, 0, 0]
    assert deployment.version_manager.manager.latest_published(PATH) == 0


# ----------------------------------------------------------------------
# pure partition/placement algebra
# ----------------------------------------------------------------------
class TestPartitionAlgebra:
    def test_resolve_aggregator_count_defaults_and_clamps(self):
        assert resolve_aggregator_count(1) == 1
        assert resolve_aggregator_count(4) == 1
        assert resolve_aggregator_count(8) == 2
        assert resolve_aggregator_count(8, configured=3) == 3
        assert resolve_aggregator_count(2, configured=16) == 2
        with pytest.raises(MPIIOError):
            resolve_aggregator_count(4, configured=0)
        with pytest.raises(MPIIOError):
            resolve_aggregator_count(0)

    def test_aggregator_ranks_are_unique_and_spread(self):
        assert aggregator_ranks(8, 2) == [0, 4]
        assert aggregator_ranks(8, 3) == [0, 2, 5]
        assert aggregator_ranks(5, 5) == [0, 1, 2, 3, 4]
        for size in range(1, 12):
            for count in range(1, size + 1):
                owners = aggregator_ranks(size, count)
                assert len(owners) == len(set(owners))
                assert all(0 <= owner < size for owner in owners)
        with pytest.raises(MPIIOError):
            aggregator_ranks(4, 5)

    def test_partition_covers_the_domain_with_aligned_stripes(self):
        domains = partition_file_domain(0, 10_000, 3, align=1024)
        assert domains[0][0] == 0 and domains[-1][1] == 10_000
        for (_, end), (start, _) in zip(domains, domains[1:]):
            assert end == start
        for start, end in domains[:-1]:
            if end < 10_000:
                assert (end - start) % 1024 == 0

    def test_partition_small_extents_leave_trailing_stripes_empty(self):
        # a 100-byte span aligned to 64 needs two stripes; the rest are empty
        domains = partition_file_domain(0, 100, 4, align=64)
        assert domains[:2] == [(0, 64), (64, 100)]
        assert all(start == end == 100 for start, end in domains[2:])

    def test_partition_rejects_empty_domain(self):
        with pytest.raises(MPIIOError):
            partition_file_domain(10, 10, 2, align=64)


def test_collective_stripes_never_enter_the_client_queue():
    """A collective is a flush point of its own: a stripe never enters a
    client's write queue, so nothing is left staged for a later flush and
    the job publishes exactly the serial application of its pattern."""
    num_ranks = 4
    pattern = random_pattern(17, num_ranks, empty_rank_chance=0.0)
    cluster, deployment = make_deployment()
    drivers = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=2)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        filetype, payload = rank_view(pattern[ctx.rank])
        handle.set_view(0, BYTE, filetype)
        yield from handle.write_at_all(0, payload)
        yield from handle.close()

    run_mpi_job(cluster, num_ranks, rank_main)
    manager = deployment.version_manager.manager
    assert manager.pending_versions(PATH) == []
    for driver in drivers.values():
        assert driver.client.coalescer.stats.staged_writes == 0
        assert driver.client.coalescer.pending_writes() == 0
        # every rank learned the watermark through the closing exchange
        assert driver.client.version_hints.get(PATH) \
            == manager.latest_published(PATH)
    assert read_back(cluster, deployment) == serial_oracle(pattern)
    assert manager.latest_published(PATH) == 2


def test_atomic_reads_bypass_hints_planted_by_earlier_collectives():
    """MPI atomic mode: a read must observe another rank's completed atomic
    write even if a collective write planted a hint before it."""
    num_ranks = 2
    cluster, deployment = make_deployment()
    pattern = random_pattern(23, num_ranks, empty_rank_chance=0.0)

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=1)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        filetype, payload = rank_view(pattern[ctx.rank])
        handle.set_view(0, BYTE, filetype)
        yield from handle.write_at_all(0, payload)  # plants hints everywhere
        handle.set_view(0, BYTE, BYTE)
        handle.set_atomicity(True)
        if ctx.rank == 1:
            yield from handle.write_at(0, b"ATOMIC!!")
        yield from ctx.comm.barrier(ctx.rank)
        data = yield from handle.read_at(0, 8)
        yield from handle.close()
        return data

    result = run_mpi_job(cluster, num_ranks, rank_main)
    # rank 0 must see rank 1's atomic write despite its stale hint
    assert result.results[0] == b"ATOMIC!!"
    assert result.results[1] == b"ATOMIC!!"


def test_partition_boundaries_stay_chunk_aligned_for_misaligned_extents():
    """The stripe grid is anchored at the aligned floor of the extent, so a
    collective starting mid-chunk still never splits one chunk between two
    aggregators (each chunk's copy-on-write cost is paid once)."""
    domains = partition_file_domain(5, 2053, 2, align=1024)
    assert domains[0][0] == 5 and domains[-1][1] == 2053
    for _start, end in domains[:-1]:
        if end < 2053:
            assert end % 1024 == 0, domains
    # and the domains still tile the extent
    for (_, end), (start, _) in zip(domains, domains[1:]):
        assert end == start


@pytest.mark.parametrize("pattern,multi_row", [
    # the aggregator's domain fits one stripe row (3 providers x 1 KiB)
    ([[(100, b"a" * 900)], [(700, b"b" * 2000)]], False),
    # a domain of several rows: one data exchange per row
    (random_pattern(29, 2, empty_rank_chance=0.0), True),
], ids=["one-row", "multi-row"])
def test_collective_write_skips_the_redundant_closing_barrier(pattern,
                                                              multi_row):
    """The aggregator protocol ends in a group-wide exchange; the File
    layer must not charge a second rendezvous on top of it."""
    num_ranks = 2
    cluster, deployment = make_deployment()
    comms = []

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=1)
        if ctx.rank == 0:
            comms.append(ctx.comm)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        filetype, payload = rank_view(pattern[ctx.rank])
        handle.set_view(0, BYTE, filetype)
        yield from handle.write_at_all(0, payload)
        yield from handle.close()

    run_mpi_job(cluster, num_ranks, rank_main)
    lo = min(offset for pairs in pattern for offset, _data in pairs)
    hi = max(offset + len(data) for pairs in pattern for offset, data in pairs)
    row = len(deployment.data_providers) * CHUNK
    rounds = -(-(hi - lo // CHUNK * CHUNK) // row)
    assert (rounds > 1) == multi_row
    # open barrier (1) + describe allgather + one data alltoallv per stripe
    # row of the aggregator's domain + closing allgather — and nothing else
    assert comms[0].collectives_completed == 3 + rounds
    assert read_back(cluster, deployment) == serial_oracle(pattern)
