"""Integration tests: the MPI-I/O File layer over every ADIO driver."""

import pytest

from repro.bench.environment import BACKENDS, build_environment
from repro.cluster import ClusterConfig
from repro.core.atomicity import VectoredWrite, check_mpi_atomicity
from repro.core.listio import IOVector
from repro.errors import MPIIOError
from repro.mpi.datatypes import BYTE, Indexed, Subarray
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.file import AccessMode, File


QUICK = ClusterConfig(network_latency=1e-5, disk_overhead=1e-4)
FILE_SIZE = 64 * 1024


def make_environment(backend, **kwargs):
    kwargs.setdefault("num_storage_nodes", 3)
    kwargs.setdefault("stripe_unit", 4096)
    kwargs.setdefault("config", QUICK)
    return build_environment(backend, **kwargs)


ATOMIC_BACKENDS = ["versioning", "posix-locking", "posix-listlock", "conflict-detect"]


class TestSingleRankRoundtrip:
    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_contiguous_write_read(self, backend):
        environment = make_environment(backend)

        def rank_main(ctx):
            driver = environment.driver_factory(ctx)
            handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                          comm=ctx.comm, size_hint=FILE_SIZE)
            yield from handle.write_at(100, b"hello world")
            data = yield from handle.read_at(100, 11)
            size = yield from handle.get_size()
            yield from handle.close()
            return data, size

        result = run_mpi_job(environment.cluster, 1, rank_main)
        data, size = result.results[0]
        assert data == b"hello world"
        assert size >= 111 or backend == "versioning"

    @pytest.mark.parametrize("backend", ["versioning", "posix-locking"])
    def test_noncontiguous_view_roundtrip(self, backend):
        environment = make_environment(backend)
        filetype = Indexed([4, 4, 4], [0, 100, 200], base=BYTE)

        def rank_main(ctx):
            driver = environment.driver_factory(ctx)
            handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                          comm=ctx.comm, size_hint=FILE_SIZE)
            handle.set_view(displacement=1000, filetype=filetype)
            yield from handle.write_at(0, b"AAAABBBBCCCC")
            data = yield from handle.read_at(0, 12)
            yield from handle.close()
            return data

        result = run_mpi_job(environment.cluster, 1, rank_main)
        assert result.results[0] == b"AAAABBBBCCCC"

    def test_write_on_readonly_file_rejected(self):
        environment = make_environment("versioning")

        def rank_main(ctx):
            driver = environment.driver_factory(ctx)
            handle = yield from File.open(driver, "/f",
                                          AccessMode.RDONLY | AccessMode.CREATE,
                                          rank=ctx.rank, comm=ctx.comm,
                                          size_hint=FILE_SIZE)
            yield from handle.write_at(0, b"nope")

        with pytest.raises(MPIIOError):
            run_mpi_job(environment.cluster, 1, rank_main)

    def test_access_on_closed_file_rejected(self):
        environment = make_environment("versioning")

        def rank_main(ctx):
            driver = environment.driver_factory(ctx)
            handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                          comm=ctx.comm, size_hint=FILE_SIZE)
            yield from handle.close()
            yield from handle.read_at(0, 4)

        with pytest.raises(MPIIOError):
            run_mpi_job(environment.cluster, 1, rank_main)

    def test_versioning_open_requires_size_hint(self):
        environment = make_environment("versioning")

        def rank_main(ctx):
            driver = environment.driver_factory(ctx)
            yield from File.open(driver, "/f", rank=ctx.rank, comm=ctx.comm,
                                 size_hint=0)

        with pytest.raises(MPIIOError):
            run_mpi_job(environment.cluster, 1, rank_main)

    def test_atomicity_flag_roundtrip(self):
        environment = make_environment("versioning")

        def rank_main(ctx):
            driver = environment.driver_factory(ctx)
            handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                          comm=ctx.comm, size_hint=FILE_SIZE)
            before = handle.get_atomicity()
            handle.set_atomicity(True)
            after = handle.get_atomicity()
            yield from handle.close()
            return before, after

        result = run_mpi_job(environment.cluster, 1, rank_main)
        assert result.results[0] == (False, True)


def concurrent_overlapping_job(environment, num_ranks, atomic, stagger=False):
    """All ranks write overlapping non-contiguous regions; returns final file."""
    # every rank writes two regions; region k of rank r overlaps region k of
    # ranks r-1/r+1; odd ranks write their regions in reverse order so that a
    # non-atomic backend interleaves them visibly
    region_size = 512
    shift = 256

    def pairs_for(rank):
        fill = bytes([65 + rank])
        pairs = [(slot * 4096 + rank * shift, fill * region_size)
                 for slot in range(4)]
        return list(reversed(pairs)) if (stagger and rank % 2) else pairs

    def rank_main(ctx):
        driver = environment.driver_factory(ctx)
        handle = yield from File.open(driver, "/shared", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        handle.set_atomicity(atomic)
        pairs = pairs_for(ctx.rank)
        lengths = [len(data) for _, data in pairs]
        displs = [offset for offset, _ in pairs]
        handle.set_view(filetype=Indexed(lengths, displs, base=BYTE))
        yield from ctx.comm.barrier(ctx.rank)
        yield from handle.write_at_all(0, b"".join(data for _, data in pairs))
        yield from ctx.comm.barrier(ctx.rank)
        data = b""
        if ctx.rank == 0:
            handle.set_view()  # reset to a plain byte view
            data = yield from handle.read_at(0, FILE_SIZE)
        yield from handle.close()
        return data

    result = run_mpi_job(environment.cluster, num_ranks, rank_main)
    observed = result.results[0]
    writes = [VectoredWrite(rank, IOVector.for_write(pairs_for(rank)))
              for rank in range(num_ranks)]
    return observed, writes


class TestConcurrentAtomicity:
    @pytest.mark.parametrize("backend", ATOMIC_BACKENDS)
    def test_atomic_mode_is_mpi_atomic(self, backend):
        environment = make_environment(backend)
        observed, writes = concurrent_overlapping_job(environment, 4, atomic=True,
                                                      stagger=True)
        assert check_mpi_atomicity(b"\x00" * FILE_SIZE, writes, observed)

    def test_nolock_driver_never_locks(self):
        """Failure injection: the nolock driver ignores atomic mode entirely."""
        environment = make_environment("nolock")
        observed, writes = concurrent_overlapping_job(environment, 4, atomic=True,
                                                      stagger=True)
        # no fcntl (MPI-I/O layer) locks were ever requested
        stats = environment.storage_stats()
        fcntl_locks = sum(
            1
            for ost in environment.deployment.osts
            for file_id in ("fcntl:/shared",)
            for _ in ost.locks.manager.held_locks(file_id)
        )
        assert fcntl_locks == 0
        assert stats["locks_granted"] > 0  # only the per-write POSIX locks

    @pytest.mark.parametrize("backend, serializable",
                             [("nolock", False), ("posix-locking", True)])
    def test_nolock_driver_tears_what_the_locking_driver_keeps_whole(
            self, backend, serializable):
        """Two ranks write the same two regions in opposite orders.  Without
        an MPI-I/O layer lock a vector still goes out one POSIX write at a
        time, so each region ends with a different last writer and the
        checker flags it; under the covering-extent lock the same job is
        serializable."""
        environment = make_environment(backend)
        regions = (0, 8192)

        def pairs_for(rank):
            order = regions if rank == 0 else reversed(regions)
            return [(offset, bytes([65 + rank]) * 512) for offset in order]

        def rank_main(ctx):
            driver = environment.driver_factory(ctx)
            yield from driver.open("/shared", FILE_SIZE, create=True,
                                   rank=ctx.rank, comm=ctx.comm)
            yield from driver.write_vector(
                "/shared", IOVector.for_write(pairs_for(ctx.rank)), atomic=True)
            yield from ctx.comm.barrier(ctx.rank)
            data = yield from driver.read_vector(
                "/shared", IOVector.for_read([(0, FILE_SIZE)]), atomic=True)
            return data

        observed = run_mpi_job(environment.cluster, 2, rank_main).results[0]
        writes = [VectoredWrite(rank, IOVector.for_write(pairs_for(rank)))
                  for rank in range(2)]
        assert check_mpi_atomicity(b"\x00" * FILE_SIZE, writes,
                                   observed) is serializable

    def test_atomic_read_accounts_its_shared_lock_wait(self):
        """A reader queued behind an atomic writer reports the wait, as a
        queued writer does."""
        environment = make_environment("posix-locking")
        drivers = {}

        def rank_main(ctx):
            driver = drivers[ctx.rank] = environment.driver_factory(ctx)
            yield from driver.open("/shared", FILE_SIZE, create=True,
                                   rank=ctx.rank, comm=ctx.comm)
            if ctx.rank == 0:
                yield from driver.write_vector(
                    "/shared", IOVector.for_write([(0, b"w" * FILE_SIZE)]),
                    atomic=True)
            else:
                yield ctx.sim.timeout(5 * QUICK.network_latency)
                yield from driver.read_vector(
                    "/shared", IOVector.for_read([(100, 50)]), atomic=True)

        run_mpi_job(environment.cluster, 2, rank_main)
        reader = drivers[1]
        # at least the writer's disk I/O went by while the reader queued
        assert reader.lock_wait_time > QUICK.disk_overhead
        assert reader.lock_wait_time == reader.client.lock_wait_time

    def test_posix_backend_without_mpiio_locks_can_violate_atomicity(self):
        """Failure injection: interleaved multi-region writes on the POSIX
        backend are *not* MPI-atomic — the gap the locking drivers must close
        and the versioning backend closes by design.

        The interleaving is forced deterministically: two clients write the
        same two regions in opposite orders with a pause in between, so each
        region ends up with a different "last writer" — a state no serial
        order of the two vectored writes can produce.
        """
        from repro.cluster import Cluster
        from repro.posixfs import PosixClient, PosixFsDeployment

        cluster = Cluster(config=QUICK)
        deployment = PosixFsDeployment(cluster, num_osts=2,
                                       default_stripe_size=4096)
        clients = [PosixClient(deployment, node)
                   for node in cluster.add_nodes("c", 2)]
        region_a, region_b = (0, 512), (8192, 512)
        pairs = {
            0: [(region_a[0], b"A" * 512), (region_b[0], b"A" * 512)],
            1: [(region_b[0], b"B" * 512), (region_a[0], b"B" * 512)],
        }

        def writer(client, my_pairs):
            for index, (offset, data) in enumerate(my_pairs):
                yield from client.write("/shared", offset, data)
                yield cluster.sim.timeout(0.5)  # let the other writer interleave

        def scenario():
            yield from clients[0].create("/shared", stripe_size=4096)
            procs = [cluster.sim.process(writer(clients[rank], pairs[rank]))
                     for rank in range(2)]
            yield cluster.sim.all_of(procs)
            content = yield from clients[0].read("/shared", 0, FILE_SIZE)
            return content

        process = cluster.sim.process(scenario())
        observed = cluster.sim.run(stop_event=process)
        writes = [VectoredWrite(rank, IOVector.for_write(pairs[rank]))
                  for rank in range(2)]
        assert not check_mpi_atomicity(b"\x00" * FILE_SIZE, writes, observed)

    @pytest.mark.parametrize("backend", ["versioning", "posix-locking"])
    def test_disjoint_writes_any_mode(self, backend):
        environment = make_environment(backend)

        def rank_main(ctx):
            driver = environment.driver_factory(ctx)
            handle = yield from File.open(driver, "/shared", rank=ctx.rank,
                                          comm=ctx.comm, size_hint=FILE_SIZE)
            yield from handle.write_at(ctx.rank * 1024, bytes([65 + ctx.rank]) * 1024)
            yield from ctx.comm.barrier(ctx.rank)
            data = b""
            if ctx.rank == 0:
                data = yield from handle.read_at(0, 4 * 1024)
            yield from handle.close()
            return data

        result = run_mpi_job(environment.cluster, 4, rank_main)
        content = result.results[0]
        for rank in range(4):
            assert content[rank * 1024:(rank + 1) * 1024] == bytes([65 + rank]) * 1024

    def test_conflict_detect_skips_locks_when_disjoint(self):
        environment = make_environment("conflict-detect")
        drivers = []

        def rank_main(ctx):
            driver = environment.driver_factory(ctx)
            drivers.append(driver)
            handle = yield from File.open(driver, "/shared", rank=ctx.rank,
                                          comm=ctx.comm, size_hint=FILE_SIZE)
            handle.set_atomicity(True)
            pairs = [(ctx.rank * 2048, b"x" * 512), (ctx.rank * 2048 + 1024, b"y" * 512)]
            lengths = [512, 512]
            displs = [offset for offset, _ in pairs]
            handle.set_view(filetype=Indexed(lengths, displs, base=BYTE))
            yield from handle.write_at_all(0, b"x" * 512 + b"y" * 512)
            yield from handle.close()

        run_mpi_job(environment.cluster, 3, rank_main)
        assert sum(driver.locks_skipped for driver in drivers) == 3
        assert sum(driver.locks_taken for driver in drivers) == 0

    def test_conflict_detect_locks_when_overlapping(self):
        environment = make_environment("conflict-detect")
        observed, writes = concurrent_overlapping_job(environment, 3, atomic=True)
        assert check_mpi_atomicity(b"\x00" * FILE_SIZE, writes, observed)
