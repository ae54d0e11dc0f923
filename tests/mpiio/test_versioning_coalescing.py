"""The versioning ADIO driver with write coalescing enabled.

MPI only requires non-atomic writes to be visible after ``MPI_File_sync`` /
``MPI_File_close`` (or an atomic-mode access on the same handle), so the
driver may queue them in the write pipeline's coalescer and commit one
merged snapshot per flush point.  These tests pin the visibility contract:
queued data is readable after every flush trigger, atomic-mode traffic
serializes behind the queue, and the coalesced file contents equal the
uncoalesced ones.
"""

import pytest

from repro.blobseer.client import BlobClient
from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.errors import StorageError
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.vstore.client import VectoredClient

QUICK = ClusterConfig(network_latency=1e-5, disk_overhead=1e-4)
FILE_SIZE = 16 * 1024


def make_environment(**driver_options):
    cluster = Cluster(config=QUICK, seed=3)
    deployment = BlobSeerDeployment(cluster, num_providers=3,
                                    num_metadata_providers=2,
                                    chunk_size=1024)

    def driver_factory(ctx):
        return VersioningDriver(deployment, ctx.node,
                                rank_name=f"rank{ctx.rank}", **driver_options)

    return cluster, deployment, driver_factory


@pytest.mark.parametrize("flush_via", ["sync", "close_reopen", "read"])
def test_queued_writes_become_visible_at_each_flush_point(flush_via):
    cluster, deployment, driver_factory = make_environment(write_coalescing=True)

    def rank_main(ctx):
        driver = driver_factory(ctx)
        handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        yield from handle.write_at(0, b"first")
        yield from handle.write_at(100, b"second")
        # nothing is committed yet: both writes sit in the coalescer queue
        assert driver.client.coalescer.pending_writes("/f") == 2
        assert deployment.version_manager.manager.latest_published("/f") == 0
        if flush_via == "sync":
            yield from handle.sync()
        elif flush_via == "close_reopen":
            yield from handle.close()
            handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                          comm=ctx.comm, size_hint=FILE_SIZE)
        # (the "read" variant flushes implicitly through read_at below)
        data_a = yield from handle.read_at(0, 5)
        data_b = yield from handle.read_at(100, 6)
        return data_a, data_b

    result = run_mpi_job(cluster, 1, rank_main)
    assert result.results[0] == (b"first", b"second")
    # both queued writes were folded into a single published snapshot
    assert deployment.version_manager.manager.latest_published("/f") == 1


def test_atomic_write_flushes_the_queue_first():
    cluster, deployment, driver_factory = make_environment(write_coalescing=True)

    def rank_main(ctx):
        driver = driver_factory(ctx)
        handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        yield from handle.write_at(0, b"queued")
        handle.set_atomicity(True)
        yield from handle.write_at(3, b"ATOMIC")
        data = yield from handle.read_at(0, 9)
        yield from handle.close()
        return data

    result = run_mpi_job(cluster, 1, rank_main)
    # the queued write got the earlier ticket; the atomic write overlays it
    assert result.results[0] == b"que" + b"ATOMIC"
    assert deployment.version_manager.manager.latest_published("/f") == 2


def test_coalesced_contents_equal_uncoalesced_contents():
    contents = {}
    for coalescing in (False, True):
        cluster, _, driver_factory = make_environment(
            write_coalescing=coalescing)

        def rank_main(ctx):
            driver = driver_factory(ctx)
            handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                          comm=ctx.comm, size_hint=FILE_SIZE)
            for step in range(6):
                payload = bytes([65 + step]) * 300
                yield from handle.write_at(step * 250, payload)
            yield from handle.sync()
            data = yield from handle.read_at(0, 2000)
            yield from handle.close()
            return data

        result = run_mpi_job(cluster, 1, rank_main)
        contents[coalescing] = result.results[0]
    assert contents[True] == contents[False]


def test_coalescing_spends_fewer_control_rpcs_for_small_write_trains():
    rpcs = {}
    for coalescing in (False, True):
        cluster, _, driver_factory = make_environment(
            write_coalescing=coalescing)
        drivers = []

        def rank_main(ctx):
            driver = driver_factory(ctx)
            drivers.append(driver)
            handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                          comm=ctx.comm, size_hint=FILE_SIZE)
            for step in range(8):
                yield from handle.write_at(step * 64, b"x" * 64)
            yield from handle.close()

        run_mpi_job(cluster, 1, rank_main)
        client = drivers[0].client
        rpcs[coalescing] = client.write_control_rpcs + client.metadata_put_rpcs
    assert rpcs[True] * 2 <= rpcs[False], rpcs


def test_read_fences_when_publication_lags_behind_own_commit():
    """Read-your-writes when another writer holds an earlier ticket: the
    client's committed batch is unpublished (its joined ``complete`` saw a
    lagging watermark), so the read must fence and wait — never serve a
    snapshot older than the client's own flushed write."""
    cluster, deployment, driver_factory = make_environment(
        write_coalescing=True)
    blocker = BlobClient(deployment, cluster.add_node("blocker"),
                         name="blocker")

    def staller():
        # grab the next ticket and sit on it for a while before completing
        version, _base = yield from blocker._control(
            deployment.version_manager, "assign_ticket", "/f")
        yield cluster.sim.timeout(0.05)
        yield from blocker._control(
            deployment.version_manager, "complete", "/f", version)

    def rank_main(ctx):
        driver = driver_factory(ctx)
        handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        cluster.sim.process(staller())
        yield ctx.sim.timeout(0.001)  # let the staller take its ticket
        # flushing right after the write commits it with the later ticket,
        # but it cannot publish until the staller does
        yield from handle.write_at(0, b"hello!")
        client = driver.client
        yield from client.vflush("/f")
        # join the deferred complete: nothing is queued or in flight any
        # more, only the committed batch's publication lags behind
        yield from client.writepath.drain("/f")
        assert client.coalescer.pending_writes("/f") == 0
        assert client.writepath.outstanding("/f") == 0
        assert client.coalescer.last_committed_version("/f") \
            > client.version_hints.get("/f", 0)
        data = yield from handle.read_at(0, 6)
        yield from handle.close()
        return data

    result = run_mpi_job(cluster, 1, rank_main)
    assert result.results[0] == b"hello!"
    assert deployment.version_manager.manager.latest_published("/f") == 2


# ----------------------------------------------------------------------
# read-hint interaction of collective reads (regression gate)
# ----------------------------------------------------------------------
def test_collective_read_consumes_and_refreshes_one_shot_hints():
    """A collective read must live off the hint machinery correctly: the
    hint planted by a collective write serves the group's version pin
    (zero ``latest`` round-trips), and the read replants a fresh one-shot
    hint — consumed by exactly one subsequent independent read."""
    cluster, deployment, driver_factory = make_environment(
        write_coalescing=True, collective_buffering=True,
        collective_aggregators=1)
    drivers = []

    def rank_main(ctx):
        driver = driver_factory(ctx)
        drivers.append(driver)
        handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        yield from handle.write_at_all(ctx.rank * 64, bytes([65 + ctx.rank]) * 64)
        client = driver.client
        assert "/f" in client._read_hints  # planted by the collective write
        data = yield from handle.read_at_all(0, 128)
        assert client.latest_rpcs == 0  # the pin consumed the hint
        assert "/f" in client._read_hints  # ... and the read replanted one
        again = yield from handle.read_at(0, 128)
        assert client.latest_rpcs == 0  # the replanted hint served this too
        third = yield from handle.read_at(0, 128)
        assert client.latest_rpcs == 1  # one-shot: the third read round-trips
        yield from handle.close()
        return data, again, third

    result = run_mpi_job(cluster, 2, rank_main)
    expected = b"A" * 64 + b"B" * 64
    for data, again, third in result.results:
        assert data == expected and again == expected and third == expected


def test_collective_read_never_serves_older_than_a_rank_own_commit():
    """The version pin is the *maximum* over every rank's watermark: a lead
    resolver holding a stale hint must still pin a version at least as new
    as every peer's own published commit — at zero ``latest`` cost."""
    cluster, deployment, driver_factory = make_environment(
        write_coalescing=True, collective_buffering=True,
        collective_aggregators=1)

    def rank_main(ctx):
        driver = driver_factory(ctx)
        handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        # round 1 plants a (soon stale) hint on every rank
        yield from handle.write_at_all(ctx.rank * 64, bytes([65 + ctx.rank]) * 64)
        yield from handle.read_at_all(0, 128)
        # rank 1 publishes a fresh commit the lead resolver knows nothing of
        if ctx.rank == 1:
            yield from handle.write_at(256, b"OWN-COMMIT!!")
            yield from handle.sync()
        yield from ctx.comm.barrier(ctx.rank)
        before = driver.client.latest_rpcs
        data = yield from handle.read_at_all(256, 12)
        yield from handle.close()
        return data, driver.client.latest_rpcs - before

    result = run_mpi_job(cluster, 2, rank_main)
    for data, latest_delta in result.results:
        # rank 1's synced commit is visible group-wide, without a round-trip
        assert data == b"OWN-COMMIT!!"
        assert latest_delta == 0


def test_read_hints_are_dropped_when_a_commit_aborts_its_ticket():
    """Satellite gap: a failed commit releases its ticket through
    ``VersionManager.abort`` — by the time the abort returns, versions
    newer than a pending hint may have published (a peer stripe of the same
    failed collective), so the hint must not survive the abort."""
    cluster = Cluster(config=QUICK, seed=3)
    deployment = BlobSeerDeployment(cluster, num_providers=3,
                                    num_metadata_providers=2,
                                    chunk_size=1024)
    client = VectoredClient(deployment, cluster.add_node("c"), name="c")

    def scenario():
        yield from client.create_blob("/f", FILE_SIZE, chunk_size=1024)
        yield from client.vwrite_queued("/f", [(0, b"a" * 100)])
        yield from client.vbarrier("/f")
        assert "/f" in client._read_hints  # the barrier planted one
        engine = client.writepath

        def broken_store_nodes(blob, nodes, trace_parent=None):
            del engine._store_nodes  # one-shot: the class method returns
            raise StorageError("metadata shard lost mid-commit")
            yield  # pragma: no cover - generator shape

        engine._store_nodes = broken_store_nodes
        try:
            yield from client.vwrite("/f", [(200, b"b" * 100)])
        except StorageError:
            pass
        else:  # pragma: no cover - the sabotage must bite
            raise AssertionError("sabotaged commit did not fail")
        assert "/f" not in client._read_hints  # dropped by the abort path
        before = client.latest_rpcs
        pieces = yield from client.vread("/f", [(0, 100)])
        assert client.latest_rpcs == before + 1  # the read round-tripped
        return pieces[0]

    process = cluster.sim.process(scenario())
    data = cluster.sim.run(stop_event=process)
    assert data == b"a" * 100
    manager = deployment.version_manager.manager
    assert manager.tickets_aborted == 1
    assert manager.pending_versions("/f") == []
