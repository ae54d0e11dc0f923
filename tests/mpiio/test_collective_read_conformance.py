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
non-resolver ranks spend zero metadata control RPCs, the scatter carries
pieces and hole descriptors and nothing else (exact byte accounting at 4 and
at 64 ranks), and a resolver walks a snapshot cold once — its own cache, not
a shipped plan, keeps the later rounds at zero metadata RPCs.
"""

import random

import pytest

from repro.blobseer.client import BlobClient
from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.core.listio import IOVector
from repro.core.regions import Region, RegionList, canonical_runs
from repro.errors import StorageError
from repro.mpiio.adio.collective import (
    EXTENT_DESCRIPTION_BYTES,
    CollectiveReader,
    _scan_outcomes,
    _written_spans,
    aggregator_ranks,
    partition_file_domain,
)
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.vstore.client import VectoredClient
from tests._oracle import random_pattern, rank_view, serial_oracle
from tests._regions import regions_minus
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
                                  collective_buffering=collective,
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
    # open barrier (1) + describe allgather + data alltoallv (2) — and
    # nothing else: failures ride the scatter, no closing phase follows
    assert comms[0].collectives_completed == 3
    assert comms[0].bytes_moved > 0


# ----------------------------------------------------------------------
# the scatter moves bytes and nothing else
# ----------------------------------------------------------------------
def run_rounds_job(steps, *, num_ranks=4, num_resolvers=2, seed_regions=None):
    """Run the generator ``steps(ctx, driver, handle)`` on every rank of one
    job over seeded contents; returns ``(results, drivers, content)``."""
    cluster, deployment = make_deployment()
    content = seed_content(
        cluster, deployment,
        [seed_regions] if seed_regions is not None
        else random_pattern(23, num_ranks, empty_rank_chance=0.0))
    drivers = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=num_resolvers)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        outcome = yield from steps(ctx, driver, handle)
        yield from handle.close()
        return outcome

    result = run_mpi_job(cluster, num_ranks, rank_main)
    return result.results, drivers, content


def control_rpcs(driver):
    return driver.client.metadata_read_rpcs, driver.client.latest_rpcs


@pytest.mark.parametrize("num_ranks,num_resolvers", [(4, 2), (64, 16)])
def test_exchange_bytes_are_descriptions_pieces_and_holes_exactly(
        num_ranks, num_resolvers):
    """``bytes_sent`` over the group is the encoded descriptions plus, for
    every (resolver, other rank) pair, payload + 16 B per hole descriptor +
    one 16 B header when there is payload — recomputed here from the region
    algebra alone.  A shipped plan, a per-piece offset (or any other
    stowaway) breaks the equality."""
    block = 32
    blocks_per_rank = (FILE_SIZE // 2) // (num_ranks * block)
    assert blocks_per_rank >= 3, "the strided part must encode as one run"
    # the dump is sparse: three written runs, holes between and after them
    written = RegionList([(0, 3000), (5000, 4000), (9500, 2500)])
    seed_regions = [(region.offset, bytes([7 + index]) * region.size)
                    for index, region in enumerate(written)]
    # per rank: interleaved blocks at a constant stride over the first half
    # (one run on the wire) and one lone extent in the second half
    read_pattern = [
        [((k * num_ranks + rank) * block, block)
         for k in range(blocks_per_rank)]
        + [(FILE_SIZE // 2 + rank * 100, 60)]
        for rank in range(num_ranks)]

    def steps(ctx, driver, handle):
        filetype, total = read_view(read_pattern[ctx.rank])
        handle.set_view(0, BYTE, filetype)
        data = yield from handle.read_at_all(0, total)
        return data

    results, drivers, content = run_rounds_job(
        steps, num_ranks=num_ranks, num_resolvers=num_resolvers,
        seed_regions=seed_regions)
    assert results == expected_reads(content, read_pattern)

    # phase 1: a 32 B run + a 16 B lone extent + the 8 B watermark per rank
    expected = num_ranks * (3 * EXTENT_DESCRIPTION_BYTES + 8)
    # phase 3: what each resolver cuts for each *other* rank
    lo = min(offset for regions in read_pattern for offset, _size in regions)
    hi = max(offset + size
             for regions in read_pattern for offset, size in regions)
    owners = aggregator_ranks(num_ranks, num_resolvers)
    domains = partition_file_domain(lo, hi, num_resolvers, CHUNK)
    hole_bytes = 0
    for owner, (start, end) in zip(owners, domains):
        stripe = Region(start, end - start)
        for rank, regions in enumerate(read_pattern):
            if rank == owner:
                continue
            payload = 0
            for wanted in RegionList(regions).normalized().intersection(
                    RegionList((stripe,))):
                wanted = RegionList((wanted,))
                holes = regions_minus(wanted, written)
                payload += wanted.intersection(written).total_bytes()
                expected += EXTENT_DESCRIPTION_BYTES * len(holes)
                hole_bytes += holes.total_bytes()
            expected += payload + (EXTENT_DESCRIPTION_BYTES if payload else 0)
    stats = [driver.reader.stats for driver in drivers.values()]
    assert sum(entry.bytes_sent for entry in stats) == expected
    assert sum(entry.hole_bytes_elided for entry in stats) == hole_bytes > 0
    # every scattered byte was received by exactly one other rank
    descriptions = num_ranks * (3 * EXTENT_DESCRIPTION_BYTES + 8)
    assert sum(entry.bytes_received for entry in stats) \
        == expected - descriptions


class _ImageClient:
    """Stand-in resolver client over an in-memory file image: it serves
    the written runs as views of the image and the never-written runs as
    holes, both cut at chunk edges as a store's extents are; the cutting
    and the scatter are the real exchange's."""

    def __init__(self, image, written):
        self.image, self.written = image, written

    def fetch_extents(self, blob_id, vector, version):
        wanted = RegionList([(request.offset, request.size)
                             for request in vector])
        view = memoryview(self.image)
        extents = []
        for regions, stored in ((wanted.intersection(self.written), True),
                                (regions_minus(wanted, self.written), False)):
            for region in regions:
                start = region.offset
                while start < region.end:
                    end = min(region.end, (start // CHUNK + 1) * CHUNK)
                    extents.append((start, end - start,
                                    view[start:end] if stored else None))
                    start = end
        return sorted(extents, key=lambda extent: extent[0])
        yield  # pragma: no cover - generator shape


def random_request_shape(rng, size, rank, num_ranks):
    """One rank's read requests in any shape a vector may take: the
    interleaved blocks of a strided access, lone blocks, blocks across
    chunk edges, adjacent and overlapping requests, descending order and
    zero-size requests."""
    if rng.random() < 0.4:
        block = rng.choice([CHUNK // 4, 100])
        blocks = [(offset, block) for offset in range(
            rank * block, size - block, num_ranks * block)]
        # a zero-size request can trail the blocks, as a view's last
        # element may
        return blocks[::rng.choice([1, 1, -1])] + rng.choice(
            [[], [(size - 1, 0)]])
    requests = []
    for _ in range(rng.randint(0, 6)):
        offset = rng.randrange(size - 1)
        length = rng.choice([0, rng.randint(1, 64), rng.randint(1, 3 * CHUNK)])
        length = min(length, size - offset)
        requests.append((offset, length))
        if rng.random() < 0.3:
            # the next request starts where this one ends
            requests.append((offset + length,
                             min(rng.randint(1, 64), size - offset - length)))
    if rng.random() < 0.5:
        requests.sort()
    elif rng.random() < 0.5:
        requests.sort(reverse=True)
    return requests


@pytest.mark.parametrize("seed", range(60))
def test_each_rank_places_the_offsetless_payloads_exactly(seed):
    """The scatter ships payloads without offsets; every rank derives them
    from its own runs.  Whatever the request shape, fully written or holed,
    each rank gets exactly its bytes of the image back."""
    rng = random.Random(seed)
    size = 8 * CHUNK
    if rng.random() < 0.5:
        written = RegionList([(0, size)])
    else:
        written = RegionList([(rng.randrange(size), rng.randint(1, 2 * CHUNK))
                              for _ in range(rng.randint(0, 5))]
                             ).intersection(RegionList([(0, size)]))
    image = bytearray(size)
    for region in written:
        image[region.offset:region.end] = bytes(
            rng.randrange(1, 256) for _ in range(region.size))
    image = bytes(image)
    num_ranks = rng.randint(1, 6)
    requests = [random_request_shape(rng, size, rank, num_ranks)
                for rank in range(num_ranks)]
    wanted = [canonical_runs(pairs) for pairs in requests]
    runs = [run for rank_runs in wanted for run in rank_runs]
    if not runs:
        return
    owners = aggregator_ranks(num_ranks, rng.randint(1, num_ranks))
    domains = partition_file_domain(min(start for start, _end in runs),
                                    max(end for _start, end in runs),
                                    len(owners), CHUNK)
    readers = [CollectiveReader(_ImageClient(image, written))
               for _rank in range(num_ranks)]
    inboxes = [{} for _rank in range(num_ranks)]
    for owner, domain in zip(owners, domains):
        resolve = readers[owner]._resolve_stripe(PATH, 1, domain, wanted,
                                                 owner)
        with pytest.raises(StopIteration) as stop:
            next(resolve)
        for destination, item in stop.value.value.items():
            inboxes[destination][owner] = item
    for rank, pairs in enumerate(requests):
        assert readers[rank]._scatter(
            IOVector.for_read(pairs), inboxes[rank], wanted[rank], domains,
            owners) == b"".join([image[offset:offset + length]
                                 for offset, length in pairs]), f"rank {rank}"


@pytest.mark.parametrize("seed", range(60))
def test_written_spans_and_holes_tile_every_run_in_order(seed):
    """The sweep a scatter's receiver cuts with: the written spans and the
    holes inside the runs, merged in order, are the runs exactly — the
    spans are what the holes leave of each run (one hole may reach across
    several runs).  Cutting the runs at only the holes inside them, which
    is what a resolver ships, gives the receiver the same spans."""
    rng = random.Random(seed)
    size = rng.choice([64, 512, 4096])
    runs = canonical_runs((rng.randrange(size), rng.randint(0, size // 4))
                          for _ in range(rng.randint(0, 8)))
    holes = canonical_runs((rng.randrange(size), rng.randint(0, size // 3))
                           for _ in range(rng.randint(0, 6)))
    def regions(pairs):
        return RegionList([(start, end - start) for start, end in pairs])

    wanted, gaps = regions(runs), regions(holes)
    spans = _written_spans(runs, holes)
    cut = [(region.offset, region.end)
           for region in wanted.intersection(gaps)]
    pieces = sorted(spans + cut)
    assert canonical_runs((start, end - start) for start, end in pieces) \
        == runs
    assert all(end > start for start, end in pieces)
    assert all(previous[1] <= following[0]
               for previous, following in zip(pieces, pieces[1:]))
    assert spans == sorted(spans)
    assert regions(spans) == regions_minus(wanted, gaps)
    assert _written_spans(runs, cut) == spans


def test_a_resolver_walks_a_snapshot_cold_once():
    """Rounds 2 and 3 of the same pinned snapshot cost the resolvers zero
    metadata read RPCs — their own round-1 walk filled their own caches —
    and the non-resolvers never touch the control plane at all."""
    num_ranks, num_resolvers, rounds = 4, 2, 3

    def steps(ctx, driver, handle):
        marks = [control_rpcs(driver)]
        scans = []
        for _round in range(rounds):
            data = yield from handle.read_at_all(0, FILE_SIZE)
            scans.append(data)
            marks.append(control_rpcs(driver))
        return scans, marks

    results, drivers, content = run_rounds_job(
        steps, num_ranks=num_ranks, num_resolvers=num_resolvers)
    owners = aggregator_ranks(num_ranks, num_resolvers)
    for rank, (scans, marks) in enumerate(results):
        assert scans == [content] * rounds
        metadata = [after[0] - before[0]
                    for before, after in zip(marks, marks[1:])]
        if rank in owners:
            assert metadata[0] > 0, f"resolver {rank} never walked"
            assert metadata[1:] == [0] * (rounds - 1), \
                f"resolver {rank} re-walked a snapshot it had resolved"
        else:
            assert metadata == [0] * rounds
            assert marks[-1][1] == 0, f"rank {rank} asked for latest"
    # one ``latest`` for the whole job: the lead resolver's, in round 1
    assert sum(driver.client.latest_rpcs for driver in drivers.values()) == 1
    assert all(driver.reader.stats.stripes_resolved
               == (rounds if rank in owners else 0)
               for rank, driver in drivers.items())


def test_collective_write_then_read_then_independent_read():
    """After ``write_at_all`` + ``read_at_all`` every rank's independent
    re-read returns the collective's bytes and needs no ``latest`` (the
    refreshed one-shot hint); the tree walk is the rank's own — warm on an
    aggregator/resolver for its own stripe, a recorded cold walk elsewhere.
    """
    num_ranks, num_resolvers = 4, 2
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

    results, _drivers, content = run_rounds_job(
        steps, num_ranks=num_ranks, num_resolvers=num_resolvers)
    state = bytearray(content)
    for regions in pattern:
        for offset, payload in regions:
            state[offset:offset + len(payload)] = payload
    expected = bytes(state)
    owners = aggregator_ranks(num_ranks, num_resolvers)
    for rank, (collective, again, before, after) in enumerate(results):
        assert collective == expected and again == expected
        assert after[1] == before[1], f"rank {rank} asked for latest"
        if rank not in owners:
            assert before[0] == 0, f"rank {rank} walked inside a collective"
            assert after[0] > 0, "a bystander's own read walks cold"


def test_a_new_version_costs_its_resolver_one_round_of_its_leaves():
    """A version published between two collective reads is walked by the
    resolvers alone, each in one ``get_nodes`` round (at most one RPC per
    shard), fetching at most its stripe's leaves.  Reads look leaves up at
    the read version, so nothing cached under the old version answers the
    new one — what the root-down descent reused across versions (the
    interior nodes a rewrite left alone) the leaf walk trades for one round
    trip; only the patched leaf, keyed under the group's watermark by the
    aggregator that wrote it, is a hit."""
    num_ranks = 4
    patch = b"\xee" * CHUNK
    leaves_per_stripe = FILE_SIZE // CHUNK // 2

    def fetched(driver):
        return driver.client.tiers.fetched_lookups

    def steps(ctx, driver, handle):
        first = yield from handle.read_at_all(0, FILE_SIZE)
        cold = (control_rpcs(driver), fetched(driver))
        # one rank rewrites one chunk; the others participate empty-handed
        yield from handle.write_at_all(
            5 * CHUNK, patch if ctx.rank == 1 else b"")
        second = yield from handle.read_at_all(0, FILE_SIZE)
        return first, second, cold, (control_rpcs(driver), fetched(driver))

    results, drivers, content = run_rounds_job(steps, num_ranks=num_ranks)
    patched = content[:5 * CHUNK] + patch + content[6 * CHUNK:]
    owners = aggregator_ranks(num_ranks, 2)
    shards = len(drivers[0].client.deployment.metadata_providers)
    for rank, (first, second, cold, after) in enumerate(results):
        assert first == content and second == patched
        (cold_rpcs, cold_fetched), (rpcs, total_fetched) = cold, after
        assert rpcs[1] == cold_rpcs[1], f"rank {rank} asked for latest again"
        if rank not in owners:
            assert rpcs[0] == 0 and total_fetched == 0
            continue
        assert 0 < rpcs[0] - cold_rpcs[0] <= shards, rank
        assert total_fetched - cold_fetched <= leaves_per_stripe, rank
    new_lookups = [results[rank][3][1] - results[rank][2][1]
                   for rank in owners]
    # the first resolver also aggregated the patch: its leaf is the one
    # already keyed under the watermark; the second fetches its stripe
    assert new_lookups == [leaves_per_stripe - 1, leaves_per_stripe]


@pytest.mark.parametrize("outcomes,expected", [
    # two aggregators published back to back; bystanders report 0
    ([("ok", 7), ("ok", 0), ("ok", 8), ("ok", 0)], ([], 8, True)),
    # the order the aggregators report in does not matter
    ([("ok", 9), ("ok", 7), ("ok", 8)], ([], 9, True)),
    # a lone aggregator is a run of one
    ([("ok", 0), ("ok", 4)], ([], 4, True)),
    # another writer's ticket fell between the group's versions
    ([("ok", 7), ("ok", 9)], ([], 9, False)),
    # nobody published (collectively nothing to write)
    ([("ok", 0), ("ok", 0)], ([], 0, True)),
    # any error: no watermark, nothing keyed
    ([("ok", 7), ("err", "rank 1: boom"), ("ok", 8)],
     (["rank 1: boom"], 0, False)),
])
def test_closing_outcomes_name_the_watermark_and_whether_the_run_is_gapless(
        outcomes, expected):
    assert _scan_outcomes(outcomes) == expected


@pytest.mark.parametrize("num_resolvers", [1, 2, 4])
def test_a_collective_write_leaves_its_reads_at_the_watermark_warm(
        num_resolvers):
    """``write_at_all`` over the whole file, then three ``read_at_all`` at
    the group's watermark: each aggregator keyed its stripe's leaves under
    the watermark, the read stripes are the write stripes, so the
    resolvers spend no metadata read RPC at all."""
    num_ranks, rounds = 4, 3
    pattern = [[(offset, bytes([rank + 1]) * 256)
                for offset in range(rank * 256, FILE_SIZE, num_ranks * 256)]
               for rank in range(num_ranks)]

    def steps(ctx, driver, handle):
        filetype, payload = rank_view(pattern[ctx.rank])
        handle.set_view(0, BYTE, filetype)
        yield from handle.write_at_all(0, payload)
        handle.set_view(0, BYTE, BYTE)
        before = control_rpcs(driver)
        scans = []
        for _round in range(rounds):
            scans.append((yield from handle.read_at_all(0, FILE_SIZE)))
        return scans, before, control_rpcs(driver)

    results, drivers, _content = run_rounds_job(
        steps, num_ranks=num_ranks, num_resolvers=num_resolvers)
    expected = serial_oracle(pattern, FILE_SIZE)
    for rank, (scans, before, after) in enumerate(results):
        assert scans == [expected] * rounds
        assert after[0] == before[0], f"rank {rank} fetched metadata"
    owners = aggregator_ranks(num_ranks, num_resolvers)
    assert all(drivers[rank].aggregator.stats.stripes_committed == 1
               and drivers[rank].reader.stats.stripes_resolved == rounds
               for rank in owners)


def test_the_watermark_keys_reach_a_co_tenant_through_the_node_pool():
    """Two ranks per compute node, the node pool on: after ``write_at_all``
    each non-aggregator's independent read at the watermark finds its own
    node's aggregator stripe in the pool — whichever aggregator published
    below the watermark too — and fetches only the other stripe."""
    from dataclasses import replace

    from repro.blobseer.deployment import BlobSeerDeployment
    from repro.cluster import Cluster
    from tests.mpiio._collective_testlib import QUICK

    num_ranks, num_aggregators = 4, 2
    leaves_per_stripe = FILE_SIZE // CHUNK // num_aggregators
    cluster = Cluster(config=replace(QUICK, ranks_per_node=2,
                                     shared_metadata_cache=True), seed=3)
    deployment = BlobSeerDeployment(cluster, num_providers=3,
                                    num_metadata_providers=2,
                                    chunk_size=CHUNK)
    content = seed_content(cluster, deployment, [[(0, b"\x01" * FILE_SIZE)]])
    pattern = [[(offset, bytes([rank + 2]) * 256)
                for offset in range(rank * 256, FILE_SIZE, num_ranks * 256)]
               for rank in range(num_ranks)]

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=num_aggregators)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        filetype, payload = rank_view(pattern[ctx.rank])
        handle.set_view(0, BYTE, filetype)
        yield from handle.write_at_all(0, payload)
        # the aggregators key their leaves as they leave the collective; a
        # co-tenant leaving it at the same instant could look first
        yield from ctx.comm.barrier(ctx.rank)
        handle.set_view(0, BYTE, BYTE)
        data = yield from handle.read_at(0, FILE_SIZE)
        yield from handle.close()
        tiers = driver.client.tiers
        return (ctx.node.name, data, tiers.pool_stats.hits,
                tiers.shard_stats.hits)

    result = run_mpi_job(cluster, num_ranks, rank_main)
    assert content == b"\x01" * FILE_SIZE
    expected = serial_oracle(pattern, FILE_SIZE)
    owners = aggregator_ranks(num_ranks, num_aggregators)
    nodes = [node for node, _data, _hits, _fetched in result.results]
    assert nodes[0] == nodes[1] != nodes[2] == nodes[3]
    for rank, (_node, data, pool_hits, fetched) in enumerate(result.results):
        assert data == expected
        if rank not in owners:
            assert (pool_hits, fetched) \
                == (leaves_per_stripe, leaves_per_stripe), rank


def test_a_failed_collective_write_keys_nothing_under_its_versions():
    """An aggregator loses a metadata shard mid-commit: the collective
    fails on every rank, and the surviving aggregator's cache holds its
    leaves under their own version only — nothing re-keyed under a
    watermark the group never agreed on — while reads stay right."""
    num_ranks, num_resolvers = 4, 2
    owners = aggregator_ranks(num_ranks, num_resolvers)
    pattern = [[(offset, bytes([rank + 1]) * 256)
                for offset in range(rank * 256, FILE_SIZE, num_ranks * 256)]
               for rank in range(num_ranks)]

    def steps(ctx, driver, handle):
        client = driver.client
        if ctx.rank == owners[1]:
            def broken_store_nodes(blob, nodes, trace_parent=None):
                del client.writepath._store_nodes
                raise StorageError("metadata shard lost mid-commit")
                yield  # pragma: no cover - generator shape

            client.writepath._store_nodes = broken_store_nodes
        filetype, payload = rank_view(pattern[ctx.rank])
        handle.set_view(0, BYTE, filetype)
        try:
            yield from handle.write_at_all(0, payload)
        except Exception as exc:
            failed = type(exc).__name__
        else:
            failed = None
        keys = {key: node.key.version
                for key, node in client.metadata_cache._resolved.items()
                if node is not None}
        handle.set_view(0, BYTE, BYTE)
        data = yield from handle.read_at_all(0, FILE_SIZE)
        return failed, keys, data

    results, _drivers, content = run_rounds_job(
        steps, num_ranks=num_ranks, num_resolvers=num_resolvers)
    assert all(failed is not None for failed, _keys, _data in results)
    survivor_keys = results[owners[0]][1]
    assert survivor_keys and all(key[3] == version
                                 for key, version in survivor_keys.items())
    # the survivor's stripe published; the doomed stripe rolled back
    low, high = partition_file_domain(0, FILE_SIZE, num_resolvers, CHUNK)[0]
    expected = bytearray(content)
    expected[low:high] = serial_oracle(pattern, FILE_SIZE)[low:high]
    assert all(data == bytes(expected) for _failed, _keys, data in results)


def test_an_outside_ticket_inside_the_group_run_re_indexes_nothing():
    """An independent writer's ticket lands between the two aggregators'
    versions, on the first aggregator's stripe.  The group's versions are
    then no consecutive run, so no aggregator keys its leaves under the
    watermark (there the outsider's leaf is the newest), and every read
    returns the outsider's bytes where it wrote last."""
    num_ranks, num_resolvers = 4, 2
    outside = (3 * CHUNK, b"\x99" * CHUNK)
    pattern = [[(offset, bytes([rank + 1]) * 256)
                for offset in range(rank * 256, FILE_SIZE, num_ranks * 256)]
               for rank in range(num_ranks)]
    owners = aggregator_ranks(num_ranks, num_resolvers)
    seen = {}

    def steps(ctx, driver, handle):
        client = driver.client
        manager = client.deployment.version_manager.manager
        base = manager.latest_published(PATH)
        if ctx.rank == owners[1]:
            # the second aggregator commits only once the first aggregator
            # published and an outsider wrote after it
            outsider = BlobClient(client.deployment,
                                  client.cluster.add_node("outsider"),
                                  name="outsider")
            commit = client.writepath.commit

            def late_commit(*args, **kwargs):
                while manager.latest_published(PATH) < base + 1:
                    yield client.cluster.sim.timeout(1e-4)
                yield from outsider.vwrite_and_wait(PATH, [outside])
                return (yield from commit(*args, **kwargs))

            client.writepath.commit = late_commit
        filetype, payload = rank_view(pattern[ctx.rank])
        handle.set_view(0, BYTE, filetype)
        yield from handle.write_at_all(0, payload)
        handle.set_view(0, BYTE, BYTE)
        watermark = client.version_hints[PATH]
        seen[ctx.rank] = (base, watermark, sorted(
            key for key in client.metadata_cache._resolved
            if key[3] == watermark))
        scans = []
        for _round in range(3):
            scans.append((yield from handle.read_at_all(0, FILE_SIZE)))
        again = yield from handle.read_at(0, FILE_SIZE)
        return scans, again

    results, drivers, _content = run_rounds_job(
        steps, num_ranks=num_ranks, num_resolvers=num_resolvers)
    expected = bytearray(serial_oracle(pattern, FILE_SIZE))
    expected[outside[0]:outside[0] + CHUNK] = outside[1]
    for rank, (scans, again) in enumerate(results):
        assert scans == [bytes(expected)] * 3 and again == bytes(expected)
    base, watermark, first_keys = seen[owners[0]]
    assert watermark == base + 3  # aggregator, outsider, aggregator
    # the first aggregator's leaves stay under their own version only; the
    # second's exact-version keys are its write-through, nothing re-keyed
    assert first_keys == []
    second_cache = drivers[owners[1]].client.metadata_cache._resolved
    assert seen[owners[1]][2] and all(
        second_cache[key].key.version == watermark
        for key in seen[owners[1]][2])
