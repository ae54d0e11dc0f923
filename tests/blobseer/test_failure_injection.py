"""Failure-injection tests at the deployment level."""

import pytest

from repro.blobseer import BlobClient, BlobSeerDeployment
from repro.blobseer.chunk import ChunkKey
from repro.cluster import Cluster, ClusterConfig
from repro.core.atomicity import VectoredWrite, check_mpi_atomicity
from repro.core.listio import IOVector
from repro.errors import ProviderUnavailable
from repro.obs.registry import MetricsRegistry
from repro.obs.views import collect_cluster
from repro.vstore.client import VectoredClient


def rpc_calls(cluster):
    registry = MetricsRegistry()
    collect_cluster(registry, cluster)
    return registry.get("rpc.calls")


def make_deployment(num_providers=3):
    cluster = Cluster(config=ClusterConfig(network_latency=1e-5))
    deployment = BlobSeerDeployment(cluster, num_providers=num_providers,
                                    chunk_size=64)
    return cluster, deployment


def run(cluster, generator):
    process = cluster.sim.process(generator)
    return cluster.sim.run(stop_event=process)


class TestProviderFailure:
    def test_writes_avoid_failed_provider(self):
        cluster, deployment = make_deployment(num_providers=3)
        client = BlobClient(deployment, cluster.add_node("c0"))
        deployment.fail_provider("bs-data1")

        def scenario():
            yield from client.create_blob("b", size=1024)
            yield from client.write("b", 0, b"x" * 1024)
            data = yield from client.read("b", 0, 1024)
            return data

        assert run(cluster, scenario()) == b"x" * 1024
        assert deployment.data_provider("bs-data1").store.chunk_count() == 0
        # the surviving providers hold everything
        total = sum(service.store.chunk_count()
                    for service in deployment.data_providers.values())
        assert total == 1024 // 64

    def test_reads_of_old_data_fail_when_its_provider_dies(self):
        """Read through a second client — what a restarted job is: the
        writer's own copy of its chunks died with it."""
        cluster, deployment = make_deployment(num_providers=2)
        writer = BlobClient(deployment, cluster.add_node("c0"))
        restarted = BlobClient(deployment, cluster.add_node("c1"))

        def write_phase():
            yield from writer.create_blob("b", size=256)
            yield from writer.write("b", 0, b"y" * 256)

        run(cluster, write_phase())
        deployment.fail_provider("bs-data0")

        def read_phase():
            data = yield from restarted.read("b", 0, 256)
            return data

        with pytest.raises(ProviderUnavailable):
            run(cluster, read_phase())

    def test_writer_reads_its_own_bytes_while_their_provider_is_down(self):
        """An uploaded chunk is immutable, so the writer's copy is the
        chunk: it serves the writer, and nobody else, without the provider."""
        cluster, deployment = make_deployment(num_providers=2)
        writer = BlobClient(deployment, cluster.add_node("c0"))
        other = BlobClient(deployment, cluster.add_node("c1"))

        def write_phase():
            yield from writer.create_blob("b", size=256)
            yield from writer.write("b", 0, b"y" * 256)

        run(cluster, write_phase())
        deployment.fail_provider("bs-data0")
        deployment.fail_provider("bs-data1")
        calls = rpc_calls(cluster)

        def read_through(client):
            data = yield from client.read("b", 0, 256)
            return data

        assert run(cluster, read_through(writer)) == b"y" * 256
        # version lookup only: the tree is primed, the bytes are held
        assert rpc_calls(cluster) == calls + 1
        assert writer.extents_fetched == 0
        with pytest.raises(ProviderUnavailable):
            run(cluster, read_through(other))

    def test_recovered_provider_serves_its_chunks_again(self):
        cluster, deployment = make_deployment(num_providers=2)
        client = BlobClient(deployment, cluster.add_node("c0"))

        def write_phase():
            yield from client.create_blob("b", size=256)
            yield from client.write("b", 0, b"z" * 256)

        run(cluster, write_phase())
        deployment.fail_provider("bs-data0")
        deployment.recover_provider("bs-data0")

        def read_phase():
            data = yield from client.read("b", 0, 256)
            return data

        assert run(cluster, read_phase()) == b"z" * 256

    def test_all_providers_failed_rejects_writes(self):
        cluster, deployment = make_deployment(num_providers=1)
        client = BlobClient(deployment, cluster.add_node("c0"))
        deployment.fail_provider("bs-data0")

        def scenario():
            yield from client.create_blob("b", size=256)
            yield from client.write("b", 0, b"a" * 64)

        with pytest.raises(ProviderUnavailable):
            run(cluster, scenario())

    def test_unpublished_writer_blocks_later_snapshots_not_earlier(self):
        """A crashed writer (assigned ticket, never completed) stalls
        publication of later tickets — the documented trade-off of in-order
        publication — but already-published snapshots stay readable."""
        cluster, deployment = make_deployment(num_providers=2)
        client_a = BlobClient(deployment, cluster.add_node("c0"))
        client_b = BlobClient(deployment, cluster.add_node("c1"))

        def scenario():
            yield from client_a.create_blob("b", size=256)
            receipt = yield from client_a.write("b", 0, b"first")
            # writer B grabs a ticket but "crashes" before completing
            yield from client_b._control(
                deployment.version_manager, "assign_ticket", "b")
            # writer A writes again: its snapshot cannot publish yet
            receipt_late = yield from client_a.write("b", 0, b"later")
            latest = yield from client_a.latest_version("b")
            early = yield from client_a.read("b", 0, 5, version=receipt.version)
            return receipt.version, receipt_late.version, latest, early

        first, late, latest, early = run(cluster, scenario())
        assert first == 1 and late == 3
        assert latest == 1          # version 2 never completed, 3 is held back
        assert early == b"first"    # published data remains readable


class TestProviderLog:
    """``put_chunks`` is a ``Disk.append``: what a crash does to a queue."""

    def test_a_provider_that_is_down_reserves_no_disk_time(self):
        cluster, deployment = make_deployment(num_providers=1)
        provider = deployment.data_provider("bs-data0")
        key = ChunkKey("w", 0)
        run(cluster, provider.put_chunks([(key, b"x" * 64)]))
        disk = provider.node.disk
        reserved = (disk.operations, disk.free_at, disk.busy_time)
        deployment.fail_provider("bs-data0")
        with pytest.raises(ProviderUnavailable):
            run(cluster, provider.put_chunks([(ChunkKey("w", 1), b"y" * 64)]))
        with pytest.raises(ProviderUnavailable):
            run(cluster, provider.get_chunk_ranges([(key, 0, 64)]))
        assert (disk.operations, disk.free_at, disk.busy_time) == reserved

    def test_a_crash_inside_a_run_fails_the_members_not_yet_down(self):
        """Six writers' chunks queue behind a long I/O on the one provider,
        so they go down as one log run; the provider dies after the run's
        second member is down."""
        writers, chunk, step, blob_size = 6, 64 * 1024, 16 * 1024, 256 * 1024
        cluster = Cluster(config=ClusterConfig(), seed=3)
        deployment = BlobSeerDeployment(cluster, num_providers=1,
                                        num_metadata_providers=1,
                                        chunk_size=chunk)
        clients = [VectoredClient(deployment, cluster.add_node(f"w{rank}"),
                                  name=f"w{rank}")
                   for rank in range(writers)]
        run(cluster, clients[0].create_blob("b", blob_size))
        disk = deployment.data_provider("bs-data0").node.disk
        operations = disk.operations
        head = 4 * 1024 * 1024
        run_starts = cluster.now + disk.io_time(head)
        die_at = run_starts + disk.overhead + 2.5 * chunk / disk.bandwidth
        published = {}

        def access(rank):
            # neighbouring writers overlap by 48 KiB
            return [(rank * step, bytes([rank + 1]) * chunk)]

        def writer(rank):
            try:
                receipt = yield from clients[rank].vwrite_and_wait(
                    "b", access(rank))
            except ProviderUnavailable:
                published[rank] = None
            else:
                published[rank] = receipt.version

        def kill():
            yield cluster.sim.timeout(die_at - cluster.now)
            deployment.fail_provider("bs-data0")

        cluster.sim.process(disk.io(head))
        cluster.sim.process(kill())
        for rank in range(writers):
            cluster.sim.process(writer(rank))
        cluster.sim.run_all()
        # the long I/O, then every writer's chunk in one run
        assert disk.operations - operations == 2

        survivors = sorted(rank for rank, version in published.items()
                           if version is not None)
        assert len(published) == writers and len(survivors) == 2
        store = deployment.data_provider("bs-data0").store
        assert store.stored_bytes() == 2 * chunk
        manager = deployment.version_manager.manager
        assert manager.tickets_aborted == writers - 2

        # the provider restarts with its log intact: a fresh client reads a
        # state the survivors alone explain, in some serial order
        deployment.recover_provider("bs-data0")
        reader = VectoredClient(deployment, cluster.add_node("reader"))
        (observed,) = run(cluster, reader.vread("b", [(0, blob_size)]))
        check_mpi_atomicity(
            bytes(blob_size),
            [VectoredWrite(rank, IOVector.for_write(access(rank)))
             for rank in survivors],
            observed, raise_on_violation=True)
        assert set(observed) <= {0} | {rank + 1 for rank in survivors}

        # the aborted tickets were released: a following write publishes
        receipt = run(cluster, reader.vwrite_and_wait("b", [(0, b"after")]))
        assert receipt.version == writers + 1
        assert run(cluster, reader.vread("b", [(0, 5)])) == [b"after"]
