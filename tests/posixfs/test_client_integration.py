"""Integration tests: POSIX client + deployment on a simulated cluster."""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.bench.environment import build_environment
from repro.cluster import Cluster, ClusterConfig
from repro.core.listio import IOVector
from repro.core.regions import RegionList
from repro.errors import FileNotFound
from repro.mpiio.adio.posix_locking import PosixLockingDriver
from repro.posixfs import PosixClient, PosixFsDeployment
from repro.posixfs.lock_manager import LockMode


def make_deployment(num_osts=3, stripe_size=64):
    cluster = Cluster(config=ClusterConfig(network_latency=1e-5, disk_overhead=1e-4))
    deployment = PosixFsDeployment(cluster, num_osts=num_osts,
                                   default_stripe_size=stripe_size)
    return cluster, deployment


def run(cluster, generator):
    process = cluster.sim.process(generator)
    return cluster.sim.run(stop_event=process)


class TestPosixClient:
    def test_write_read_roundtrip(self):
        cluster, deployment = make_deployment()
        client = PosixClient(deployment, cluster.add_node("c0"))

        def scenario():
            yield from client.create("/shared", stripe_size=64)
            yield from client.write("/shared", 100, b"hello world")
            data = yield from client.read("/shared", 100, 11)
            attrs = yield from client.stat("/shared")
            return data, attrs.size

        data, size = run(cluster, scenario())
        assert data == b"hello world"
        assert size == 111

    def test_write_striped_across_osts(self):
        cluster, deployment = make_deployment(num_osts=3, stripe_size=64)
        client = PosixClient(deployment, cluster.add_node("c0"))

        def scenario():
            yield from client.create("/f", stripe_size=64, stripe_count=3)
            yield from client.write("/f", 0, b"z" * 64 * 6)

        run(cluster, scenario())
        per_ost = [ost.store.stored_bytes() for ost in deployment.osts]
        assert per_ost == [128, 128, 128]

    def test_read_missing_file_raises(self):
        cluster, deployment = make_deployment()
        client = PosixClient(deployment, cluster.add_node("c0"))

        def scenario():
            yield from client.read("/missing", 0, 4)

        with pytest.raises(FileNotFound):
            run(cluster, scenario())

    def test_unwritten_bytes_read_as_zero(self):
        cluster, deployment = make_deployment()
        client = PosixClient(deployment, cluster.add_node("c0"))

        def scenario():
            yield from client.create("/f")
            yield from client.write("/f", 10, b"x")
            data = yield from client.read("/f", 0, 12)
            return data

        assert run(cluster, scenario()) == b"\x00" * 10 + b"x\x00"

    def test_vector_write_and_read(self):
        cluster, deployment = make_deployment()
        client = PosixClient(deployment, cluster.add_node("c0"))

        def scenario():
            yield from client.create("/f", stripe_size=64)
            yield from client.write_vector(
                "/f", IOVector.for_write([(0, b"aa"), (100, b"bb")]))
            data = yield from client.read_vector(
                "/f", IOVector.for_read([(0, 2), (100, 2)]))
            return data

        assert run(cluster, scenario()) == b"aabb"

    def test_advisory_lock_serializes_writers(self):
        cluster, deployment = make_deployment()
        clients = [PosixClient(deployment, node)
                   for node in cluster.add_nodes("c", 2)]
        order = []

        def locker(client, name, hold_time):
            handle = yield from client.lock_regions(
                "/f", RegionList.single(0, 128), LockMode.EXCLUSIVE)
            order.append((name, "acquired", cluster.sim.now))
            yield cluster.sim.timeout(hold_time)
            yield from client.unlock(handle)
            order.append((name, "released", cluster.sim.now))

        def scenario():
            yield from clients[0].create("/f", stripe_size=64)
            procs = [cluster.sim.process(locker(clients[0], "a", 0.5)),
                     cluster.sim.process(locker(clients[1], "b", 0.5))]
            yield cluster.sim.all_of(procs)

        run(cluster, scenario())
        acquired = [entry for entry in order if entry[1] == "acquired"]
        released = [entry for entry in order if entry[1] == "released"]
        # the second acquisition happens only after the first release
        assert acquired[1][2] >= released[0][2]

    def test_lock_wait_time_accounted(self):
        cluster, deployment = make_deployment()
        clients = [PosixClient(deployment, node)
                   for node in cluster.add_nodes("c", 2)]

        def locker(client, hold):
            handle = yield from client.lock_regions(
                "/f", RegionList.single(0, 64), LockMode.EXCLUSIVE)
            yield cluster.sim.timeout(hold)
            yield from client.unlock(handle)

        def scenario():
            yield from clients[0].create("/f", stripe_size=64)
            procs = [cluster.sim.process(locker(client, 1.0)) for client in clients]
            yield cluster.sim.all_of(procs)

        run(cluster, scenario())
        stats = deployment.stats()
        assert stats["lock_wait_time"] >= 1.0

    def test_shared_locks_allow_concurrent_readers(self):
        cluster, deployment = make_deployment()
        clients = [PosixClient(deployment, node)
                   for node in cluster.add_nodes("c", 3)]
        acquired_times = []

        def reader(client):
            handle = yield from client.lock_regions(
                "/f", RegionList.single(0, 64), LockMode.SHARED)
            acquired_times.append(cluster.sim.now)
            yield cluster.sim.timeout(1.0)
            yield from client.unlock(handle)

        def scenario():
            yield from clients[0].create("/f", stripe_size=64)
            procs = [cluster.sim.process(reader(client)) for client in clients]
            yield cluster.sim.all_of(procs)

        run(cluster, scenario())
        assert max(acquired_times) - min(acquired_times) < 1.0

    def test_noncontiguous_lock_spans_multiple_osts(self):
        cluster, deployment = make_deployment(num_osts=3, stripe_size=64)
        client = PosixClient(deployment, cluster.add_node("c0"))

        def scenario():
            yield from client.create("/f", stripe_size=64, stripe_count=3)
            handle = yield from client.lock_regions(
                "/f", RegionList([(0, 10), (64, 10), (128, 10)]),
                LockMode.EXCLUSIVE)
            count = len(handle.entries)
            yield from client.unlock(handle)
            return count

        assert run(cluster, scenario()) == 3


def rpc_counts(deployment):
    """method -> RPCs served so far by the deployment's services."""
    counts = Counter(deployment.mds.calls)
    for ost in deployment.osts:
        counts.update(ost.calls)
        counts.update(ost.locks.calls)
    return counts


class TestPerServerBudget:
    """An access costs each OST one lock request, one bulk transfer, one disk
    I/O and one release, whatever its shape."""

    def test_atomic_noncontiguous_write_costs_one_round_per_ost(self):
        cluster, deployment = make_deployment(num_osts=3, stripe_size=64)
        driver = PosixLockingDriver(deployment, cluster.add_node("c0"))
        # 5 regions, 13 stripe pieces, covering extent of 20 stripes
        vector = IOVector.for_write([(10, b"a" * 100), (300, b"b" * 200),
                                     (640, b"c" * 64), (900, b"d" * 30),
                                     (1200, b"e" * 80)])

        def scenario():
            yield from driver.open("/f", 0, create=True)
            before = rpc_counts(deployment), cluster.rpc.total_calls
            yield from driver.write_vector("/f", vector, atomic=True)
            after = rpc_counts(deployment), cluster.rpc.total_calls
            content = yield from driver.read_vector(
                "/f", IOVector.for_read([(0, 1280)]), atomic=True)
            return before, after, content

        (before, calls_before), (after, calls_after), content = \
            run(cluster, scenario())
        spent = after - before
        assert spent == {"acquire": 3, "write_ranges": 3, "update_size": 1,
                         "release": 3}
        assert calls_after - calls_before == 10
        expected = bytearray(1280)
        vector.apply_to(expected)
        assert content == bytes(expected)
        disks = [ost.node.disk.operations for ost in deployment.osts]
        assert disks == [2, 2, 2]  # the write, then the read back

    def test_contiguous_access_over_several_stripes_of_an_ost_is_one_rpc(self):
        cluster, deployment = make_deployment(num_osts=2, stripe_size=64)
        client = PosixClient(deployment, cluster.add_node("c0"))
        payload = bytes(range(256)) * 3  # 12 stripes, 6 per OST

        def scenario():
            yield from client.create("/f", stripe_size=64, stripe_count=2)
            yield from client.write("/f", 32, payload)
            written = rpc_counts(deployment)
            data = yield from client.read("/f", 32, len(payload))
            return written, rpc_counts(deployment) - written, data

        written, read, data = run(cluster, scenario())
        assert data == payload
        assert (written["write_ranges"], written["acquire"],
                written["release"], written["update_size"]) == (2, 2, 2, 1)
        assert read == {"acquire": 2, "read_ranges": 2, "release": 2}
        assert [ost.calls["write_ranges"] for ost in deployment.osts] == [1, 1]

    def test_read_under_a_held_lock_matches_the_per_request_path(self):
        cluster, deployment = make_deployment(num_osts=3, stripe_size=64)
        client = PosixClient(deployment, cluster.add_node("c0"))
        content = bytes((7 * index) % 251 for index in range(1500))
        vector = IOVector.for_read([(1000, 300), (5, 70), (64, 64), (1490, 40),
                                    (200, 0)])

        def scenario():
            yield from client.create("/f", stripe_size=64)
            yield from client.write("/f", 0, content)
            one_by_one = yield from client.read_vector("/f", vector)
            handle = yield from client.lock_regions(
                "/f", RegionList([vector.covering_extent()]), LockMode.SHARED)
            before = rpc_counts(deployment)
            in_bulk = yield from client.read_vector("/f", vector, _locked=True)
            spent = rpc_counts(deployment) - before
            yield from client.unlock(handle)
            return one_by_one, in_bulk, spent

        one_by_one, in_bulk, spent = run(cluster, scenario())
        assert in_bulk == one_by_one == b"".join(vector.extract_from(
            content + b"\x00" * 30))
        assert spent == {"read_ranges": 3}

    def test_same_disk_operations_as_the_versioning_backend(self):
        pairs = [(rank * 96 * 1024 + region * 160 * 1024, 64 * 1024)
                 for rank in range(2) for region in range(3)]
        operations = {}
        for backend in ("posix-locking", "versioning"):
            env = build_environment(backend, num_storage_nodes=4,
                                    stripe_unit=16 * 1024)
            # the reader is a fresh driver on another node, on both
            # backends: a versioning writer would read its own chunks back
            # from memory and the read half would compare nothing
            writer, reader = (
                env.driver_factory(SimpleNamespace(
                    node=env.cluster.add_node(f"c{rank}"), rank=rank))
                for rank in range(2))

            def scenario():
                yield from writer.open("/f", 1024 * 1024, create=True)
                yield from writer.write_vector(
                    "/f", IOVector.for_write(
                        [(offset, b"x" * size) for offset, size in pairs]),
                    atomic=True)
                written = env.cluster.stats()["disk_operations"]
                yield from reader.open("/f", 1024 * 1024, create=False)
                yield from reader.read_vector(
                    "/f", IOVector.for_read(pairs), atomic=True)
                return written

            written = run(env.cluster, scenario())
            operations[backend] = (
                written, env.cluster.stats()["disk_operations"] - written)
        assert operations["posix-locking"] == operations["versioning"] == (4, 4)
