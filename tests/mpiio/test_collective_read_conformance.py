"""Collective-read conformance suite: two read modes, one byte result.

The acceptance gate of the aggregated collective-read path.  The same
randomized noncontiguous read pattern — per-rank region sets that overlap
*across* ranks — is executed through two independent paths against the same
published file contents:

* ``independent`` — every rank resolves its own regions (PR 1's read path:
  a ``latest`` round-trip plus its own segment-tree walk per rank);
* ``collective``  — one ``read_at_all`` through aggregated metadata
  resolution (version pin + resolver stripes + ``alltoallv`` scatter).

Both must produce byte-identical results, which must also equal the pure
in-memory extraction from the serially-written reference contents — the
semantics :class:`repro.mpiio.adio.collective.CollectiveReader` promises.
The suite additionally pins the protocol's contracts: reads concurrent with
queued (unflushed) writes observe them, reads across versions track every
collective write round, empty vectors participate, atomic mode bypasses,
non-resolver ranks spend zero metadata control RPCs, the plan broadcast
leaves every rank's cache warm, and it is a delta — each plan node reaches
the group once (re-read, write-then-read and new-version flows).
"""

import random

import pytest

from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.collective import (
    EXTENT_DESCRIPTION_BYTES,
    aggregator_ranks,
)
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.obs.registry import MetricsRegistry
from repro.obs.views import collect_collective
from repro.vstore.client import VectoredClient
from tests._oracle import random_pattern, rank_view, serial_oracle
from tests.mpiio._collective_testlib import make_quick_deployment

FILE_SIZE = 16 * 1024
CHUNK = 1024
PATH = "/read-conformance"


# ----------------------------------------------------------------------
# pattern generation and the in-memory oracle
# ----------------------------------------------------------------------
def random_read_pattern(seed, num_ranks, file_size=FILE_SIZE, max_regions=4,
                        max_region_size=1500, empty_rank_chance=0.2):
    """Per-rank ``(offset, size)`` lists: disjoint within a rank, freely
    overlapping across ranks, with occasional empty-handed ranks."""
    rng = random.Random(seed)
    pattern = []
    for _rank in range(num_ranks):
        if num_ranks > 1 and rng.random() < empty_rank_chance:
            pattern.append([])
            continue
        count = rng.randint(1, max_regions)
        starts = sorted(rng.sample(range(file_size - max_region_size), count))
        regions = []
        for index, offset in enumerate(starts):
            limit = (starts[index + 1] - offset if index + 1 < count
                     else max_region_size)
            size = rng.randint(1, max(1, min(max_region_size, limit)))
            regions.append((offset, size))
        pattern.append(regions)
    return pattern


def expected_reads(content, read_pattern):
    """What every rank must see: its regions extracted from ``content``."""
    return [b"".join(content[offset:offset + size]
                     for offset, size in regions)
            for regions in read_pattern]


def read_view(regions):
    """Indexed filetype + total size for one rank's disjoint read regions."""
    blocklengths = [size for _offset, size in regions]
    displacements = [offset for offset, _size in regions]
    total = sum(blocklengths)
    return Indexed(blocklengths, displacements, base=BYTE), total


def make_deployment(seed=3, network_model="bottleneck"):
    return make_quick_deployment(seed=seed, chunk_size=CHUNK,
                                 network_model=network_model)


def seed_content(cluster, deployment, write_pattern):
    """Publish the reference contents serially (rank order), one client."""
    client = VectoredClient(deployment, cluster.add_node("seeder"),
                            name="seeder")

    def scenario():
        yield from client.create_blob(PATH, FILE_SIZE, chunk_size=CHUNK)
        for regions in write_pattern:
            if regions:
                yield from client.vwrite_and_wait(PATH, regions)

    process = cluster.sim.process(scenario())
    cluster.sim.run(stop_event=process)
    return serial_oracle(write_pattern, FILE_SIZE)


# ----------------------------------------------------------------------
# the two read modes
# ----------------------------------------------------------------------
def run_read_job(read_pattern, *, collective, num_resolvers=None,
                 content_seed=11, network_model="bottleneck"):
    """Seed contents, then read them through one MPI job; returns results."""
    num_ranks = len(read_pattern)
    cluster, deployment = make_deployment(network_model=network_model)
    write_pattern = random_pattern(content_seed, num_ranks,
                                   empty_rank_chance=0.0)
    content = seed_content(cluster, deployment, write_pattern)
    drivers = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_reads=collective,
                                  collective_aggregators=num_resolvers)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        regions = read_pattern[ctx.rank]
        if regions:
            filetype, total = read_view(regions)
            handle.set_view(0, BYTE, filetype)
            data = yield from handle.read_at_all(0, total)
        else:
            data = yield from handle.read_at_all(0, 0)
        yield from handle.close()
        return data

    result = run_mpi_job(cluster, num_ranks, rank_main)
    return result.results, content, drivers, deployment


# ----------------------------------------------------------------------
# the conformance gate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("num_ranks,num_resolvers", [
    (2, 1), (3, 2), (4, 2), (5, 3), (4, 4),
])
def test_both_read_modes_produce_identical_bytes(seed, num_ranks,
                                                 num_resolvers):
    read_pattern = random_read_pattern(seed * 103 + num_ranks, num_ranks)
    content_seed = seed * 31 + num_ranks

    independent, content, _drivers, _deployment = run_read_job(
        read_pattern, collective=False, content_seed=content_seed)
    collective, content2, _drivers2, _deployment2 = run_read_job(
        read_pattern, collective=True, num_resolvers=num_resolvers,
        content_seed=content_seed)

    assert content == content2
    expected = expected_reads(content, read_pattern)
    assert independent == expected, "independent read mode diverged"
    assert collective == expected, "collective read mode diverged"


@pytest.mark.parametrize("seed,num_ranks,num_resolvers", [
    (9, 3, 2), (27, 4, 2), (55, 5, 3),
])
def test_read_modes_conform_under_queued_network(seed, num_ranks,
                                                 num_resolvers):
    """The same gate under ``network_model="queued"``: link queues and
    switch tiers change timing only — both read modes still return exactly
    the seeded bytes."""
    read_pattern = random_read_pattern(seed * 103 + num_ranks, num_ranks)
    content_seed = seed * 31 + num_ranks

    independent, content, _drivers, _deployment = run_read_job(
        read_pattern, collective=False, content_seed=content_seed,
        network_model="queued")
    collective, content2, _drivers2, _deployment2 = run_read_job(
        read_pattern, collective=True, num_resolvers=num_resolvers,
        content_seed=content_seed, network_model="queued")

    assert content == content2
    expected = expected_reads(content, read_pattern)
    assert independent == expected
    assert collective == expected


def test_reads_concurrent_with_queued_writes_observe_them():
    """Every rank queues (unflushed) writes, then the group reads
    collectively: phase 0 publishes each rank's own queue and the version
    pin covers every rank's publication, so all queued data is visible."""
    num_ranks = 4
    cluster, deployment = make_deployment()
    write_pattern = random_pattern(5, num_ranks, empty_rank_chance=0.0)
    content = bytearray(seed_content(cluster, deployment, write_pattern))
    # disjoint per-rank queued writes (cross-rank publication order is
    # timing-dependent, so overlap determinism is pinned elsewhere)
    queued = {rank: (rank * 700, bytes([200 + rank]) * 600)
              for rank in range(num_ranks)}
    for rank, (offset, payload) in queued.items():
        content[offset:offset + len(payload)] = payload

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=2)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        offset, payload = queued[ctx.rank]
        yield from handle.write_at(offset, payload)
        assert driver.client.coalescer.pending_writes(PATH) == 1
        data = yield from handle.read_at_all(0, FILE_SIZE)
        yield from handle.close()
        return data

    result = run_mpi_job(cluster, num_ranks, rank_main)
    assert all(data == bytes(content) for data in result.results)


def test_reads_across_versions_track_every_collective_round():
    """Alternating collective writes and collective reads: every read round
    observes exactly the oracle state after the preceding writes."""
    num_ranks = 4
    cluster, deployment = make_deployment()
    oracle = bytearray(FILE_SIZE)
    rounds = []
    for round_index in range(3):
        pattern = random_pattern(round_index + 50, num_ranks,
                                 empty_rank_chance=0.0)
        state = bytearray(oracle)
        for regions in pattern:
            for offset, payload in regions:
                state[offset:offset + len(payload)] = payload
        oracle = state
        rounds.append((pattern, bytes(state)))

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=2)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        observed = []
        for pattern, _expected in rounds:
            filetype, payload = rank_view(pattern[ctx.rank])
            handle.set_view(0, BYTE, filetype)
            yield from handle.write_at_all(0, payload)
            handle.set_view(0, BYTE, BYTE)
            data = yield from handle.read_at_all(0, FILE_SIZE)
            observed.append(data)
        yield from handle.close()
        return observed

    result = run_mpi_job(cluster, num_ranks, rank_main)
    for observed in result.results:
        for round_index, (_pattern, expected) in enumerate(rounds):
            assert observed[round_index] == expected, f"round {round_index}"


def test_collectively_empty_read_is_a_no_op():
    cluster, deployment = make_deployment()
    seed_content(cluster, deployment, random_pattern(7, 2,
                                                     empty_rank_chance=0.0))
    drivers = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  collective_buffering=True)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        data = yield from handle.read_at_all(0, 0)
        yield from handle.close()
        return data

    result = run_mpi_job(cluster, 3, rank_main)
    assert result.results == [b"", b"", b""]
    # the group still participated collectively — nobody read independently
    for driver in drivers.values():
        assert driver.reader.stats.collectives == 1
        assert driver.client.metadata_read_rpcs == 0


def test_empty_vector_ranks_participate_alongside_readers():
    """MPI requires every rank to enter a collective; ranks whose view maps
    to nothing must still exchange (and receive nothing)."""
    num_ranks = 4
    read_pattern = [[(0, 1024)], [], [(512, 2048)], []]
    results, content, drivers, _deployment = run_read_job(
        read_pattern, collective=True, num_resolvers=2)
    assert results == expected_reads(content, read_pattern)
    assert all(driver.reader.stats.collectives == 1
               for driver in drivers.values())
    assert num_ranks == len(drivers)


def test_atomic_mode_reads_bypass_aggregation():
    """An atomic read must ask for the true latest on every rank; the pinned
    group version of the collective path is bypassed entirely."""
    num_ranks = 3
    read_pattern = [[(0, 2048)] for _rank in range(num_ranks)]
    cluster, deployment = make_deployment()
    content = seed_content(cluster, deployment,
                           random_pattern(9, num_ranks,
                                          empty_rank_chance=0.0))
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
        data = yield from handle.read_at_all(0, 2048)
        yield from handle.close()
        return data

    result = run_mpi_job(cluster, num_ranks, rank_main)
    assert all(data == content[:2048] for data in result.results)
    for driver in drivers.values():
        assert driver.reader.stats.collectives == 0
        # every rank resolved independently (one latest RPC each)
        assert driver.client.latest_rpcs == 1


def test_non_resolver_ranks_spend_zero_metadata_control_rpcs():
    """The acceptance criterion's control-plane half: aggregation
    concentrates the read-side metadata traffic on the resolvers."""
    num_ranks, num_resolvers = 6, 2
    read_pattern = random_read_pattern(13, num_ranks, empty_rank_chance=0.0)
    results, content, drivers, _deployment = run_read_job(
        read_pattern, collective=True, num_resolvers=num_resolvers)
    assert results == expected_reads(content, read_pattern)
    owners = set(aggregator_ranks(num_ranks, num_resolvers))
    for rank, driver in drivers.items():
        client = driver.client
        if rank not in owners:
            assert client.metadata_read_rpcs == 0
            assert client.latest_rpcs == 0
        # no rank but the lead resolver ever asks for ``latest``
        if rank != min(owners):
            assert client.latest_rpcs == 0


def test_collective_read_skips_the_redundant_closing_barrier():
    """The reader protocol ends in a group-wide exchange; the File layer
    must not charge a second rendezvous on top of it."""
    num_ranks = 2
    cluster, deployment = make_deployment()
    content = seed_content(cluster, deployment,
                           random_pattern(15, num_ranks,
                                          empty_rank_chance=0.0))
    comms = []

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  collective_buffering=True,
                                  collective_aggregators=1)
        if ctx.rank == 0:
            comms.append(ctx.comm)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        data = yield from handle.read_at_all(0, 4096)
        yield from handle.close()
        return data

    result = run_mpi_job(cluster, num_ranks, rank_main)
    assert all(data == content[:4096] for data in result.results)
    # open barrier (1) + describe allgather + data alltoallv + closing
    # allgather (3) — and nothing else
    assert comms[0].collectives_completed == 4
    assert comms[0].bytes_moved > 0


def test_plan_broadcast_leaves_every_cache_warm():
    """After one collective read, every rank's next *independent* read of
    any collectively-covered region costs zero metadata RPCs: the absorbed
    plan answers the tree walk and the refreshed hint elides ``latest``."""
    num_ranks = 4
    cluster, deployment = make_deployment()
    content = seed_content(cluster, deployment,
                           random_pattern(17, num_ranks,
                                          empty_rank_chance=0.0))
    drivers = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  collective_buffering=True,
                                  collective_aggregators=2)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        collective = yield from handle.read_at_all(0, FILE_SIZE)
        before = (driver.client.metadata_read_rpcs, driver.client.latest_rpcs)
        again = yield from handle.read_at(ctx.rank * 1024, 2048)
        after = (driver.client.metadata_read_rpcs, driver.client.latest_rpcs)
        yield from handle.close()
        return collective, again, before, after

    result = run_mpi_job(cluster, num_ranks, rank_main)
    for rank, (collective, again, before, after) in enumerate(result.results):
        assert collective == content
        assert again == content[rank * 1024:rank * 1024 + 2048]
        assert after == before, f"rank {rank} spent RPCs on a warm read"
    for driver in drivers.values():
        assert driver.client.plan_nodes_absorbed > 0


# ----------------------------------------------------------------------
# the plan broadcast is a delta: each node reaches the group once
# ----------------------------------------------------------------------
def run_delta_job(steps, *, num_ranks=4, num_resolvers=2, content=None):
    """Run the generator ``steps(ctx, driver, handle)`` on every rank of one
    job; every plan a rank absorbs is recorded (as a list of entries) in
    ``absorbed[rank]``.  Returns ``(results, drivers, absorbed, content)``.
    """
    cluster, deployment = make_deployment()
    content = seed_content(
        cluster, deployment,
        [[(0, content)]] if content is not None
        else random_pattern(23, num_ranks, empty_rank_chance=0.0))
    drivers, absorbed = {}, {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=num_resolvers)
        drivers[ctx.rank] = driver
        plans = absorbed[ctx.rank] = []
        absorb = driver.client.absorb_plan_nodes

        def recording_absorb(blob_id, entries):
            plans.append(list(entries))
            return absorb(blob_id, entries)

        driver.client.absorb_plan_nodes = recording_absorb
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        outcome = yield from steps(ctx, driver, handle)
        yield from handle.close()
        return outcome

    result = run_mpi_job(cluster, num_ranks, rank_main)
    return result.results, drivers, absorbed, content


def control_rpcs(driver):
    return driver.client.metadata_read_rpcs, driver.client.latest_rpcs


def test_rereading_a_pinned_snapshot_ships_no_plan_entries():
    """The second ``read_at_all`` of one snapshot finds every trace entry
    already sent to the group: zero plan entries travel, and the exchange
    carries the access descriptions and the data pieces only."""
    num_ranks, num_resolvers = 4, 2
    written = bytes(range(256)) * (FILE_SIZE // 256)   # no holes anywhere

    def steps(ctx, driver, handle):
        first = yield from handle.read_at_all(0, FILE_SIZE)
        mid = driver.reader.stats.snapshot()
        second = yield from handle.read_at_all(0, FILE_SIZE)
        return first, second, mid, driver.reader.stats.snapshot()

    results, drivers, absorbed, content = run_delta_job(
        steps, num_ranks=num_ranks, num_resolvers=num_resolvers,
        content=written)
    assert all(first == content and second == content
               for first, second, _mid, _end in results)
    mids = [mid for _first, _second, mid, _end in results]
    ends = [end for _first, _second, _mid, end in results]

    def total(snapshots, key):
        return sum(snapshot[key] for snapshot in snapshots)

    shipped_first = total(mids, "plan_nodes_shipped")
    assert shipped_first > 0 and total(mids, "plan_nodes_elided") == 0
    # read 2 walks the same trace and ships none of it
    assert total(ends, "plan_nodes_shipped") == shipped_first
    assert total(ends, "plan_nodes_elided") == shipped_first
    assert all(len(plans) == 1 for plans in absorbed.values())
    # ... and the saving is a registry metric beside what was shipped
    registry = MetricsRegistry()
    collect_collective(registry, drivers.values())
    assert registry.get("collective.read.plan_nodes_elided") == shipped_first
    # one (offset, size) description + the watermark per rank, and one
    # stripe-sized piece from each resolver to each *other* rank
    stripe = FILE_SIZE // num_resolvers
    data_and_descriptors = (
        num_ranks * (EXTENT_DESCRIPTION_BYTES + 8)
        + num_resolvers * (num_ranks - 1)
        * (stripe + EXTENT_DESCRIPTION_BYTES))
    second_read_bytes = total(ends, "bytes_sent") - total(mids, "bytes_sent")
    assert second_read_bytes == data_and_descriptors
    node_size = drivers[0].client.cluster.config.metadata_node_size
    assert total(mids, "bytes_sent") == \
        data_and_descriptors + shipped_first * node_size


def test_collective_write_then_read_leaves_every_cache_warm():
    """The aggregators' write-through entries are private, not group-known:
    the first collective read after a collective write still ships them, so
    every rank's independent read of any range costs zero metadata RPCs."""
    num_ranks = 4
    pattern = random_pattern(31, num_ranks, empty_rank_chance=0.0)

    def steps(ctx, driver, handle):
        filetype, payload = rank_view(pattern[ctx.rank])
        handle.set_view(0, BYTE, filetype)
        yield from handle.write_at_all(0, payload)
        handle.set_view(0, BYTE, BYTE)
        collective = yield from handle.read_at_all(0, FILE_SIZE)
        before = control_rpcs(driver)
        again = yield from handle.read_at(0, FILE_SIZE)
        return collective, again, before, control_rpcs(driver)

    results, drivers, _absorbed, content = run_delta_job(
        steps, num_ranks=num_ranks)
    state = bytearray(content)
    for regions in pattern:
        for offset, payload in regions:
            state[offset:offset + len(payload)] = payload
    expected = bytes(state)
    for rank, (collective, again, before, after) in enumerate(results):
        assert collective == expected and again == expected
        assert after == before, f"rank {rank} spent RPCs on a warm read"
    # the write-through entries did travel: nothing was held back
    assert all(driver.reader.stats.plan_nodes_elided == 0
               for driver in drivers.values())


def test_a_new_version_ships_only_its_own_lookups():
    """A version published between two collective reads re-ships nothing
    the first read's plan carried — only lookups under the new version's
    hints travel — and every cache still ends warm for the new snapshot."""
    num_ranks = 4
    patch = b"\xee" * CHUNK

    def steps(ctx, driver, handle):
        first = yield from handle.read_at_all(0, FILE_SIZE)
        # one rank rewrites one chunk; the others participate empty-handed
        yield from handle.write_at_all(
            5 * CHUNK, patch if ctx.rank == 1 else b"")
        second = yield from handle.read_at_all(0, FILE_SIZE)
        before = control_rpcs(driver)
        again = yield from handle.read_at(0, FILE_SIZE)
        return first, second, again, before, control_rpcs(driver)

    results, drivers, absorbed, content = run_delta_job(
        steps, num_ranks=num_ranks)
    patched = content[:5 * CHUNK] + patch + content[6 * CHUNK:]
    for rank, (first, second, again, before, after) in enumerate(results):
        assert first == content
        assert second == patched and again == patched
        assert after == before, f"rank {rank} spent RPCs on a warm read"
    for rank, plans in absorbed.items():
        old, new = ({request for request, _node in plan} for plan in plans)
        assert new and not (old & new), f"rank {rank} was re-sent lookups"
        # the rewritten chunk's root path and its siblings, not the tree
        assert len(new) < len(old)
        pinned_before = max(hint for _offset, _size, hint in old)
        assert all(hint >= pinned_before for _offset, _size, hint in new)
    assert sum(driver.reader.stats.plan_nodes_elided
               for driver in drivers.values()) > 0
