"""Zero-extent elision in the collective read scatter.

Resolvers ship never-written ranges as compact ``(offset, length)`` hole
descriptors instead of literal zero payloads; the receiving ranks
materialize the zeros locally.  The tests pin byte-identical results on
sparse snapshots (holes mid-stripe, whole stripes of holes, reads entirely
over holes), the elision counters, and the exchange-cost drop.
"""

from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.vstore.client import VectoredClient
from tests.mpiio._collective_testlib import make_quick_deployment

PATH = "/sparse"
CHUNK = 1024
NUM_RANKS = 4


def run_sparse_collective(seed_pairs, read_pairs_for_rank, file_size,
                          num_resolvers=2):
    """Seed a sparse dump, then one collective read over it."""
    cluster, deployment = make_quick_deployment(chunk_size=CHUNK)
    seeder = VectoredClient(deployment, cluster.add_node("seed"), name="seed")

    def seed():
        yield from seeder.create_blob(PATH, file_size, chunk_size=CHUNK)
        if seed_pairs:
            yield from seeder.vwrite_and_wait(PATH, seed_pairs)

    process = cluster.sim.process(seed())
    cluster.sim.run(stop_event=process)

    drivers = {}

    def rank_main(ctx):
        driver = VersioningDriver(
            deployment, ctx.node, rank_name=f"el{ctx.rank}",
            write_coalescing=True, collective_buffering=True,
            collective_aggregators=num_resolvers)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=file_size)
        pairs = read_pairs_for_rank(ctx.rank)
        blocklengths = [size for _offset, size in pairs]
        displacements = [offset for offset, _size in pairs]
        handle.set_view(0, BYTE,
                        Indexed(blocklengths, displacements, base=BYTE))
        data = yield from handle.read_at_all(0, sum(blocklengths))
        yield from handle.close()
        return data

    result = run_mpi_job(cluster, NUM_RANKS, rank_main, node_prefix="el-rank")
    return result.results, drivers


def expected_bytes(seed_pairs, pairs, file_size):
    content = bytearray(file_size)
    for offset, payload in seed_pairs:
        content[offset:offset + len(payload)] = payload
    return b"".join(bytes(content[offset:offset + size])
                    for offset, size in pairs)


class TestSparseCollectiveReads:
    FILE_SIZE = 16 * CHUNK

    def rank_pairs(self, rank):
        # each rank scans one quarter of the file (holes included)
        span = self.FILE_SIZE // NUM_RANKS
        return [(rank * span, span)]

    def test_holes_mid_stripe_read_back_as_zeros(self):
        seed_pairs = [(0, b"A" * (2 * CHUNK)),
                      (6 * CHUNK, b"B" * CHUNK),
                      (12 * CHUNK, b"C" * (3 * CHUNK))]
        results, drivers = run_sparse_collective(
            seed_pairs, self.rank_pairs, self.FILE_SIZE)
        for rank, data in enumerate(results):
            assert data == expected_bytes(seed_pairs,
                                          self.rank_pairs(rank),
                                          self.FILE_SIZE), rank
        elided = sum(driver.reader.stats.hole_bytes_elided
                     for driver in drivers.values())
        assert elided > 0

    def test_fully_hole_read_ships_no_payload(self):
        """Reading an entirely unwritten file: every byte is a hole, so
        resolvers ship only descriptors — and everyone still gets zeros."""
        results, drivers = run_sparse_collective(
            [], self.rank_pairs, self.FILE_SIZE)
        for rank, data in enumerate(results):
            assert data == b"\x00" * (self.FILE_SIZE // NUM_RANKS), rank
        stats = [driver.reader.stats for driver in drivers.values()]
        # all remote destinations' bytes were elided: nothing but
        # descriptors and (tiny) plans moved
        assert sum(s.hole_bytes_elided for s in stats) > 0
        payload = sum(s.bytes_sent for s in stats)
        elided = sum(s.hole_bytes_elided for s in stats)
        assert payload < elided, "descriptors must undercut the zeros"

    def test_elision_only_counts_remote_destinations(self):
        """A resolver's holes addressed to itself are a local copy — they
        were never going to cross the interconnect, so they must not count
        as elided traffic."""
        seed_pairs = [(0, b"D" * CHUNK)]
        _results, drivers = run_sparse_collective(
            seed_pairs, self.rank_pairs, self.FILE_SIZE, num_resolvers=1)
        resolver_stats = drivers[0].reader.stats
        # rank 0 is the only resolver; its own quarter is all holes past
        # the first chunk but self-addressed — only the other three ranks'
        # hole bytes count
        others_hole_bytes = 3 * (self.FILE_SIZE // NUM_RANKS)
        assert resolver_stats.hole_bytes_elided == others_hole_bytes

    def test_dense_snapshot_elides_nothing(self):
        seed_pairs = [(0, b"E" * self.FILE_SIZE)]
        results, drivers = run_sparse_collective(
            seed_pairs, self.rank_pairs, self.FILE_SIZE)
        for rank, data in enumerate(results):
            assert data == b"E" * (self.FILE_SIZE // NUM_RANKS), rank
        assert all(driver.reader.stats.hole_bytes_elided == 0
                   for driver in drivers.values())
