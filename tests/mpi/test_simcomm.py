"""Unit tests for the simulated MPI communicator and launcher."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.errors import MPIError
from repro.mpi import run_mpi_job
from repro.mpi.simcomm import Communicator


def make_cluster():
    return Cluster(config=ClusterConfig(network_latency=1e-4))


class TestCollectives:
    def test_barrier_synchronizes_ranks(self):
        cluster = make_cluster()
        arrival, departure = {}, {}

        def rank_main(ctx):
            yield ctx.sim.timeout(ctx.rank * 0.5)
            arrival[ctx.rank] = ctx.sim.now
            yield from ctx.comm.barrier(ctx.rank)
            departure[ctx.rank] = ctx.sim.now

        run_mpi_job(cluster, 4, rank_main)
        assert max(arrival.values()) == pytest.approx(1.5)
        assert min(departure.values()) >= max(arrival.values())

    def test_bcast(self):
        cluster = make_cluster()

        def rank_main(ctx):
            value = "payload" if ctx.rank == 0 else None
            received = yield from ctx.comm.bcast(ctx.rank, value, root=0)
            return received

        result = run_mpi_job(cluster, 3, rank_main)
        assert result.results == ["payload"] * 3

    def test_gather_and_allgather(self):
        cluster = make_cluster()

        def rank_main(ctx):
            gathered = yield from ctx.comm.gather(ctx.rank, ctx.rank * 10, root=1)
            everyone = yield from ctx.comm.allgather(ctx.rank, ctx.rank)
            return gathered, everyone

        result = run_mpi_job(cluster, 3, rank_main)
        gathered_values = [entry[0] for entry in result.results]
        assert gathered_values[1] == [0, 10, 20]
        assert gathered_values[0] is None and gathered_values[2] is None
        assert all(entry[1] == [0, 1, 2] for entry in result.results)

    def test_allreduce_default_sum_and_custom_op(self):
        cluster = make_cluster()

        def rank_main(ctx):
            total = yield from ctx.comm.allreduce(ctx.rank, ctx.rank + 1)
            biggest = yield from ctx.comm.allreduce(ctx.rank, ctx.rank, op=max)
            return total, biggest

        result = run_mpi_job(cluster, 4, rank_main)
        assert all(entry == (10, 3) for entry in result.results)

    def test_scatter(self):
        cluster = make_cluster()

        def rank_main(ctx):
            values = [f"item{i}" for i in range(ctx.size)] if ctx.rank == 0 else None
            mine = yield from ctx.comm.scatter(ctx.rank, values, root=0)
            return mine

        result = run_mpi_job(cluster, 3, rank_main)
        assert result.results == ["item0", "item1", "item2"]

    def test_multiple_barriers_match_by_generation(self):
        cluster = make_cluster()
        log = []

        def rank_main(ctx):
            for phase in range(3):
                yield ctx.sim.timeout((ctx.rank + 1) * 0.1)
                yield from ctx.comm.barrier(ctx.rank)
                if ctx.rank == 0:
                    log.append((phase, ctx.sim.now))

        run_mpi_job(cluster, 3, rank_main)
        assert len(log) == 3
        assert log[0][1] < log[1][1] < log[2][1]

    def test_a_finished_collective_is_released(self):
        """The communicator keeps a generation only while some rank is still
        inside it: the contributions go when the result is built, the slot —
        and with it the shuffled payload — when the last rank has left."""
        import gc
        import weakref

        cluster = make_cluster()
        comms, payloads, held_mid_round = [], [], []

        class Payload:
            """Stands in for a piece list (bytes cannot be weakly referenced)."""

        def rank_main(ctx):
            comms.append(ctx.comm)
            for _round in range(3):
                item = Payload()
                payloads.append(weakref.ref(item))
                inbox = yield from ctx.comm.alltoallv_sparse(
                    ctx.rank, {(ctx.rank + 1) % ctx.size: item})
                assert list(inbox) == [(ctx.rank - 1) % ctx.size]
                del item, inbox
                # early leavers see later ones still inside their generation
                held_mid_round.append(
                    sum(len(slots) for slots in ctx.comm._pending.values()))
                yield ctx.sim.timeout((ctx.rank + 1) * 0.01)
            yield from ctx.comm.barrier(ctx.rank)

        run_mpi_job(cluster, 3, rank_main)
        assert max(held_mid_round) >= 1
        assert all(not slots for slots in comms[0]._pending.values())
        gc.collect()
        assert [ref() for ref in payloads] == [None] * 9

    def test_alltoallv_delivers_personalized_items(self):
        cluster = make_cluster()

        def rank_main(ctx):
            send = [f"{ctx.rank}->{dst}" for dst in range(ctx.size)]
            received = yield from ctx.comm.alltoallv(ctx.rank, send)
            return received

        result = run_mpi_job(cluster, 3, rank_main)
        for dst, received in enumerate(result.results):
            assert received == [f"{src}->{dst}" for src in range(3)]

    def test_alltoallv_charges_the_bottleneck_rank(self):
        cluster = make_cluster()
        config = cluster.config

        def rank_main(ctx):
            # rank 0 sends one big payload to rank 1; everything else is empty
            send = [b"" for _ in range(ctx.size)]
            if ctx.rank == 0:
                send[1] = b"x" * (1024 * 1024)
            started = ctx.sim.now
            yield from ctx.comm.alltoallv(ctx.rank, send, sizeof=len)
            return ctx.sim.now - started

        result = run_mpi_job(cluster, 2, rank_main)
        # the bottleneck is the 1 MiB pairwise transfer, charged once
        expected = config.network_latency + (1024 * 1024) / config.network_bandwidth
        assert max(result.results) == pytest.approx(expected, rel=1e-6)

    def test_alltoallv_rejects_wrong_item_count(self):
        cluster = make_cluster()
        comm = Communicator(cluster, 2)

        def proc():
            yield from comm.alltoallv(0, [1, 2, 3])

        cluster.sim.process(proc())
        with pytest.raises(MPIError):
            cluster.run()

    def test_single_rank_collectives_are_trivial(self):
        cluster = make_cluster()

        def rank_main(ctx):
            yield from ctx.comm.barrier(ctx.rank)
            value = yield from ctx.comm.bcast(ctx.rank, "x", root=0)
            return value

        result = run_mpi_job(cluster, 1, rank_main)
        assert result.results == ["x"]

    def test_invalid_rank_rejected(self):
        cluster = make_cluster()
        comm = Communicator(cluster, 2)

        def proc():
            yield from comm.barrier(5)

        cluster.sim.process(proc())
        with pytest.raises(MPIError):
            cluster.run()

    def test_invalid_communicator_size(self):
        with pytest.raises(MPIError):
            Communicator(make_cluster(), 0)


class TestLauncher:
    def test_results_in_rank_order(self):
        cluster = make_cluster()

        def rank_main(ctx):
            yield ctx.sim.timeout((ctx.size - ctx.rank) * 0.1)
            return f"rank{ctx.rank}"

        result = run_mpi_job(cluster, 4, rank_main)
        assert result.results == [f"rank{i}" for i in range(4)]
        assert result.elapsed > 0

    def test_each_rank_on_its_own_node(self):
        cluster = make_cluster()
        nodes = []

        def rank_main(ctx):
            nodes.append(ctx.node.name)
            yield ctx.sim.timeout(0)

        run_mpi_job(cluster, 3, rank_main, node_prefix="worker")
        assert nodes == ["worker0", "worker1", "worker2"]

    def test_explicit_nodes(self):
        cluster = make_cluster()
        provided = cluster.add_nodes("fixed", 2)

        def rank_main(ctx):
            yield ctx.sim.timeout(0)
            return ctx.node.name

        result = run_mpi_job(cluster, 2, rank_main, nodes=provided)
        assert result.results == ["fixed0", "fixed1"]

    def test_too_few_nodes_rejected(self):
        cluster = make_cluster()
        nodes = cluster.add_nodes("n", 1)
        with pytest.raises(MPIError):
            run_mpi_job(cluster, 2, lambda ctx: iter(()), nodes=nodes)

    def test_zero_ranks_rejected(self):
        with pytest.raises(MPIError):
            run_mpi_job(make_cluster(), 0, lambda ctx: iter(()))


class TestAlltoallvSelfTraffic:
    def test_self_addressed_items_cost_nothing(self):
        from repro.cluster import Cluster, ClusterConfig
        cluster = Cluster(config=ClusterConfig(network_latency=1e-4))

        def rank_main(ctx):
            # everything stays local: rank r only "sends" to itself
            send = [b"" for _ in range(ctx.size)]
            send[ctx.rank] = b"x" * (1024 * 1024)
            started = ctx.sim.now
            received = yield from ctx.comm.alltoallv(ctx.rank, send, sizeof=len)
            assert received[ctx.rank] == send[ctx.rank]
            return ctx.sim.now - started

        result = run_mpi_job(cluster, 2, rank_main)
        # only the rendezvous latency is charged, no bandwidth term
        expected = cluster.config.network_latency
        assert max(result.results) == pytest.approx(expected, rel=1e-6)

    def test_allgather_accepts_a_payload_estimate(self):
        from repro.cluster import Cluster, ClusterConfig
        cluster = Cluster(config=ClusterConfig(network_latency=1e-4))
        payload = 1024 * 1024

        def rank_main(ctx):
            started = ctx.sim.now
            yield from ctx.comm.allgather(ctx.rank, ctx.rank,
                                          payload_bytes=payload)
            return ctx.sim.now - started

        result = run_mpi_job(cluster, 2, rank_main)
        expected = (cluster.config.network_latency
                    + payload / cluster.config.network_bandwidth)
        assert max(result.results) == pytest.approx(expected, rel=1e-6)


class TestBytesMovedAccounting:
    def test_collectives_accumulate_their_charged_payloads(self):
        from repro.cluster import Cluster, ClusterConfig
        cluster = Cluster(config=ClusterConfig(network_latency=1e-4))
        comms = []

        def rank_main(ctx):
            if ctx.rank == 0:
                comms.append(ctx.comm)
            yield from ctx.comm.barrier(ctx.rank)          # 0 bytes
            yield from ctx.comm.allgather(ctx.rank, ctx.rank,
                                          payload_bytes=1000)
            send = [b"" for _ in range(ctx.size)]
            send[(ctx.rank + 1) % ctx.size] = b"y" * 300   # 300 per NIC pair
            yield from ctx.comm.alltoallv(ctx.rank, send, sizeof=len)

        run_mpi_job(cluster, 2, rank_main)
        comm = comms[0]
        # barrier contributes nothing; the allgather its estimate; the
        # alltoallv its bottleneck volume (300 sent + 300 received per rank)
        assert comm.bytes_moved == 1000 + 600

    def test_single_rank_jobs_move_no_bytes(self):
        from repro.cluster import Cluster, ClusterConfig
        cluster = Cluster(config=ClusterConfig())

        def rank_main(ctx):
            yield from ctx.comm.allgather(ctx.rank, 1, payload_bytes=4096)
            return ctx.comm.bytes_moved

        result = run_mpi_job(cluster, 1, rank_main)
        assert result.results == [0]
