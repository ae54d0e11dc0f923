"""Integration tests: co-located clients sharing one node's metadata cache.

Covers the subsystem end to end — sharing between clients on one node,
write-through publication warming co-tenants, isolation between nodes —
plus the fault scenario the admission gate exists for: a client dying
mid-commit (metadata stored, ``complete`` never issued) must never leave
the shared tier holding nodes of its unpublished version, because the
version manager later publishes that aborted version *empty* and readers
resolving it must see base data, not the dead writer's.
"""

import pytest

from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.errors import StorageError
from repro.vstore.client import VectoredClient

BLOB = "shared-blob"
FILE_SIZE = 1 << 20
CHUNK = 4096


def build(num_metadata_providers=2, **config_overrides):
    config = ClusterConfig(shared_metadata_cache=True, **config_overrides)
    cluster = Cluster(config=config)
    deployment = BlobSeerDeployment(
        cluster, num_providers=2,
        num_metadata_providers=num_metadata_providers, chunk_size=CHUNK)
    return cluster, deployment


def run(cluster, generator):
    process = cluster.sim.process(generator)
    cluster.sim.run(stop_event=process)
    return process.value


def assert_gate_invariant(deployment):
    """No shared tier ever holds an entry above its node's watermark."""
    for service in deployment.node_caches.values():
        for (blob_id, _offset, _size, hint) in service._resolved:
            assert hint <= service.watermark(blob_id), (
                f"{service.node_name} holds unpublished hint {hint} "
                f"(watermark {service.watermark(blob_id)})")


class TestCoLocatedSharing:
    def test_second_reader_on_the_node_fetches_nothing(self):
        cluster, deployment = build()
        node = cluster.add_node("cn0")
        first = VectoredClient(deployment, node, name="r0")
        second = VectoredClient(deployment, node, name="r1")

        def main():
            yield from first.create_blob(BLOB, FILE_SIZE)
            yield from first.vwrite_and_wait(BLOB, [(0, b"x" * 64 * 1024)])
            yield from first.vread(BLOB, [(0, 64 * 1024)], 1)
            pieces = yield from second.vread(BLOB, [(0, 64 * 1024)], 1)
            return pieces

        pieces = run(cluster, main())
        assert pieces == [b"x" * 64 * 1024]
        assert second.metadata_read_rpcs == 0
        assert second.tiers.fetched_lookups == 0
        assert second.tiers.pool_stats.hits > 0
        assert_gate_invariant(deployment)

    def test_clients_on_different_nodes_do_not_share(self):
        cluster, deployment = build()
        first = VectoredClient(deployment, cluster.add_node("cn0"), name="r0")
        other = VectoredClient(deployment, cluster.add_node("cn1"), name="r1")

        def main():
            yield from first.create_blob(BLOB, FILE_SIZE)
            yield from first.vwrite_and_wait(BLOB, [(0, b"y" * CHUNK)])
            yield from first.vread(BLOB, [(0, CHUNK)], 1)
            yield from other.vread(BLOB, [(0, CHUNK)], 1)

        run(cluster, main())
        assert other.tiers.pool_stats.hits == 0
        assert other.tiers.fetched_lookups > 0
        assert len(deployment.node_caches) == 2

    def test_write_through_publication_warms_co_tenants(self):
        """One writer's commit leaves the whole node warm: a co-tenant's
        first read costs zero metadata RPCs."""
        cluster, deployment = build()
        node = cluster.add_node("cn0")
        writer = VectoredClient(deployment, node, name="w")
        reader = VectoredClient(deployment, node, name="r")

        def main():
            yield from writer.create_blob(BLOB, FILE_SIZE)
            yield from writer.vwrite_and_wait(BLOB, [(0, b"z" * 32 * 1024)])
            pieces = yield from reader.vread(BLOB, [(0, 32 * 1024)], 1)
            return pieces

        pieces = run(cluster, main())
        assert pieces == [b"z" * 32 * 1024]
        assert reader.metadata_read_rpcs == 0
        assert reader.tiers.pool_stats.hits > 0
        assert_gate_invariant(deployment)

    def test_detach_keeps_published_entries_for_the_next_tenant(self):
        cluster, deployment = build()
        node = cluster.add_node("cn0")
        first = VectoredClient(deployment, node, name="r0")

        def phase1():
            yield from first.create_blob(BLOB, FILE_SIZE)
            yield from first.vwrite_and_wait(BLOB, [(0, b"k" * CHUNK)])
            yield from first.vread(BLOB, [(0, CHUNK)], 1)

        run(cluster, phase1())
        first.detach()
        successor = VectoredClient(deployment, node, name="r1")

        def phase2():
            pieces = yield from successor.vread(BLOB, [(0, CHUNK)], 1)
            return pieces

        assert run(cluster, phase2()) == [b"k" * CHUNK]
        assert successor.metadata_read_rpcs == 0

    def test_detached_client_reads_cold_from_the_shards(self):
        """RED-FIRST: detaching used to clear the shared cache but leave
        the coalescing and cooperative stages routed through it, so the
        next cold read died on the missing pool.  A detached client reads
        through what is left of its chain: private cache, then shards."""
        cluster, deployment = build(cooperative_cache=True)
        writer = VectoredClient(deployment, cluster.add_node("cn0"),
                                name="w")
        reader = VectoredClient(deployment, cluster.add_node("cn1"),
                                name="r")

        def seed():
            yield from writer.create_blob(BLOB, FILE_SIZE)
            yield from writer.vwrite_and_wait(BLOB, [(0, b"d" * 4 * CHUNK)])

        run(cluster, seed())
        reader.detach()

        def cold_read():
            pieces = yield from reader.vread(BLOB, [(0, 4 * CHUNK)], 1)
            return pieces

        assert run(cluster, cold_read()) == [b"d" * 4 * CHUNK]
        assert reader.metadata_read_rpcs > 0
        assert deployment.node_caches["cn1"].stats.lookups == 0


class TestDeathBeforePublication:
    """The satellite's fault scenario, end to end."""

    def _die_before_complete(self, cluster, deployment, writer):
        """Run a commit whose ``complete`` RPC never happens (process
        death after the metadata was stored): the ticket stays assigned,
        the private cache is primed — the shared tier must hold nothing."""
        original = writer.writepath._complete

        def dying_complete(blob_id, version, nodes=None, trace_parent=None):
            raise StorageError("writer process died before complete")
            yield  # pragma: no cover - generator shape

        writer.writepath._complete = dying_complete

        def doomed():
            try:
                yield from writer.vwrite(BLOB, [(0, b"D" * 16 * 1024)])
            except StorageError:
                return "died"
            return "survived"

        outcome = run(cluster, doomed())
        writer.writepath._complete = original
        return outcome

    def test_dead_writer_leaves_no_unpublished_state_in_the_shared_tier(self):
        cluster, deployment = build()
        node = cluster.add_node("cn0")
        writer = VectoredClient(deployment, node, name="w")
        reader = VectoredClient(deployment, node, name="r")

        def setup():
            yield from writer.create_blob(BLOB, FILE_SIZE)

        run(cluster, setup())
        assert self._die_before_complete(cluster, deployment, writer) == "died"

        # the writer's own (dying) private cache may hold version-1 nodes;
        # the node's shared tier must not
        service = deployment.node_caches[node.name]
        assert service.watermark(BLOB) == 0
        assert_gate_invariant(deployment)
        assert all(hint == 0 for (_b, _o, _s, hint) in service._resolved)

        # recovery: the fault handler scrubs the dead writer's stored nodes
        # (exactly what the engine's own failure paths do before aborting),
        # then the version manager aborts the dead ticket — version 1
        # publishes *empty*, so a reader resolving it must see base data
        # (zeros).  The scrub can reach the metadata shards, but it can
        # never reach a poisoned node-local cache on some compute node:
        # only the admission gate keeps those clean.
        from repro.blobseer.metadata.nodes import NodeKey
        for shard in deployment.metadata_store.shards:
            for blob_id, offset, size in list(shard._versions):
                shard.remove_node(NodeKey(blob_id, 1, offset, size))
        manager = deployment.version_manager.manager
        manager.abort(BLOB, 1)

        def read_aborted_version():
            pieces = yield from reader.vread(BLOB, [(0, 16 * 1024)], 1)
            return pieces

        assert run(cluster, read_aborted_version()) == [b"\x00" * 16 * 1024]
        assert_gate_invariant(deployment)

    def test_completion_blocked_by_an_earlier_ticket_stays_gated(self):
        """A commit whose ``complete`` returns a lagging watermark (an
        earlier ticket still open) must not shared-publish its nodes yet."""
        cluster, deployment = build()
        node = cluster.add_node("cn0")
        blocker = VectoredClient(deployment, node, name="blocker")
        writer = VectoredClient(deployment, node, name="w")

        def main():
            yield from writer.create_blob(BLOB, FILE_SIZE)
            # the blocker takes ticket 1 and never completes it
            yield from blocker._control(
                deployment.version_manager, "assign_ticket", BLOB)
            # the writer commits ticket 2; publication cannot advance
            receipt = yield from writer.vwrite(BLOB, [(0, b"W" * CHUNK)])
            return receipt

        receipt = run(cluster, main())
        assert receipt.version == 2
        service = deployment.node_caches[node.name]
        assert service.watermark(BLOB) == 0
        assert len(service) == 0
        assert_gate_invariant(deployment)

        # once the blocker's ticket aborts, version 2 publishes and normal
        # reads repopulate the tier — correctness was never at risk
        deployment.version_manager.manager.abort(BLOB, 1)
        reader = VectoredClient(deployment, node, name="r")

        def read_back():
            pieces = yield from reader.vread(BLOB, [(0, CHUNK)], 2)
            return pieces

        assert run(cluster, read_back()) == [b"W" * CHUNK]
        assert len(service) > 0
        assert_gate_invariant(deployment)


class TestConcurrentWriters:
    def test_shared_tier_reads_match_private_baseline_under_racing_writers(self):
        """The acceptance conformance: while writers keep publishing new
        snapshots, co-located readers resolving explicit versions through
        the shared tier return exactly what a private-cache client reads —
        version by version, byte for byte."""
        rounds = 6

        def run_mode(shared):
            config = ClusterConfig(shared_metadata_cache=shared)
            cluster = Cluster(config=config)
            deployment = BlobSeerDeployment(cluster, num_providers=2,
                                            num_metadata_providers=2,
                                            chunk_size=CHUNK)
            node = cluster.add_node("cn0")
            writer_a = VectoredClient(deployment, cluster.add_node("wa"),
                                      name="wa", shared_metadata_cache=False)
            writer_b = VectoredClient(deployment, cluster.add_node("wb"),
                                      name="wb", shared_metadata_cache=False)
            readers = [VectoredClient(deployment, node, name=f"r{index}")
                       for index in range(3)]
            observed = {}

            def write_loop(writer, fill):
                for round_index in range(rounds):
                    offset = (round_index % 4) * 4 * CHUNK
                    payload = bytes([fill + round_index]) * (2 * CHUNK)
                    yield from writer.vwrite_and_wait(BLOB, [(offset,
                                                             payload)])

            def read_loop(index):
                reader = readers[index]
                for round_index in range(rounds):
                    # chase publication: read whatever is published *now*
                    version = yield from reader.latest_version(BLOB)
                    pieces = yield from reader.vread(
                        BLOB, [(0, 16 * CHUNK)], version)
                    observed[(index, round_index)] = (version, pieces[0])
                    yield cluster.sim.timeout(0.002)

            def main():
                yield from writer_a.create_blob(BLOB, FILE_SIZE)
                processes = [cluster.sim.process(write_loop(writer_a, 1)),
                             cluster.sim.process(write_loop(writer_b, 100))]
                processes += [cluster.sim.process(read_loop(index))
                              for index in range(len(readers))]
                yield cluster.sim.all_of(processes)

            process = cluster.sim.process(main())
            cluster.sim.run(stop_event=process)

            # ground truth per observed version, from a fresh private client
            truth_client = VectoredClient(deployment,
                                          cluster.add_node("truth"),
                                          name="truth",
                                          shared_metadata_cache=False)
            truth = {}

            def resolve_truth():
                for version in sorted({version for version, _data
                                       in observed.values()}):
                    pieces = yield from truth_client.vread(
                        BLOB, [(0, 16 * CHUNK)], version)
                    truth[version] = pieces[0]

            process = cluster.sim.process(resolve_truth())
            cluster.sim.run(stop_event=process)
            return observed, truth

        observed, truth = run_mode(shared=True)
        for key, (version, data) in observed.items():
            assert data == truth[version], (key, version)
        # and the snapshot images themselves match a fully private run
        # re-executing the same deterministic write schedule
        observed_private, truth_private = run_mode(shared=False)
        common = set(truth) & set(truth_private)
        assert common
        for version in common:
            assert truth[version] == truth_private[version], version


class TestBoundedPool:
    def test_streaming_co_tenants_keep_the_newest_leaves_resident(self):
        """Co-tenants each streaming fresh leaves through a small pool:
        plain LRU keeps the last read's leaves and nothing else."""
        cluster, deployment = build(shared_cache_capacity=8)
        seeder = VectoredClient(deployment, cluster.add_node("seed"),
                                name="s", shared_metadata_cache=False)
        node = cluster.add_node("cn0")
        readers = [VectoredClient(deployment, node, name=f"r{index}",
                                  enable_metadata_cache=False)
                   for index in range(2)]

        def main():
            yield from seeder.create_blob(BLOB, FILE_SIZE)
            yield from seeder.vwrite_and_wait(BLOB, [(0, b"s" * 64 * CHUNK)])
            for round_index in range(4):
                for index, reader in enumerate(readers):
                    offset = (2 * round_index + index) * 8 * CHUNK
                    pieces = yield from reader.vread(
                        BLOB, [(offset, 8 * CHUNK)], 1)
                    assert pieces == [b"s" * 8 * CHUNK]

        run(cluster, main())
        pool = deployment.node_caches["cn0"]
        assert pool.stats.evictions > 0
        assert sorted(pool._resolved) == [(BLOB, leaf * CHUNK, CHUNK, 1)
                                         for leaf in range(56, 64)]
        assert_gate_invariant(deployment)
