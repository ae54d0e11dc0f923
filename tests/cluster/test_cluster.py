"""Unit tests for the simulated cluster (nodes, network, disk, RPC)."""

import pytest

from repro.cluster import Cluster, ClusterConfig, Service
from repro.errors import SimulationError


def make_cluster(**overrides):
    config = ClusterConfig(network_latency=0.001, network_bandwidth=1000.0,
                           disk_bandwidth=500.0, disk_overhead=0.01,
                           rpc_handling_overhead=0.0, control_message_size=1,
                           **overrides)
    return Cluster(config=config)


class TestClusterBuilding:
    def test_add_node(self):
        cluster = make_cluster()
        node = cluster.add_node("n0", role="storage", with_disk=True)
        assert node.disk is not None
        assert cluster.node("n0") is node

    def test_duplicate_node_rejected(self):
        cluster = make_cluster()
        cluster.add_node("n0")
        with pytest.raises(SimulationError):
            cluster.add_node("n0")

    def test_unknown_node_rejected(self):
        with pytest.raises(SimulationError):
            make_cluster().node("missing")

    def test_engine_knob_is_gone_not_ignored(self):
        with pytest.raises(TypeError):
            ClusterConfig(engine="fast")

    @pytest.mark.parametrize("name,value", [("shared_cache_policy", "lru"),
                                            ("metadata_prefetch", True),
                                            ("coop_provider_fraction", 0.5)])
    def test_metadata_cache_knobs_are_gone_not_ignored(self, name, value):
        with pytest.raises(TypeError):
            ClusterConfig(**{name: value})
        with pytest.raises(TypeError):
            ClusterConfig().copy(**{name: value})

    @pytest.mark.parametrize("suffix,value", [("recorder", False),
                                              ("capacity", 16)])
    def test_flight_ring_knobs_are_gone_not_ignored(self, suffix, value):
        """A run's one record is its span trace: the ring buffer that sat
        beside it is gone, and so are both of its knobs."""
        name = f"flight_{suffix}"
        with pytest.raises(TypeError):
            ClusterConfig(**{name: value})
        with pytest.raises(TypeError):
            ClusterConfig().copy(**{name: value})

    def test_observability_holds_no_flight_ring(self):
        assert not hasattr(Cluster().obs, "flight")

    def test_add_nodes_names(self):
        cluster = make_cluster()
        nodes = cluster.add_nodes("client", 3)
        assert [node.name for node in nodes] == ["client0", "client1", "client2"]

    def test_compute_node_has_no_disk(self):
        cluster = make_cluster()
        node = cluster.add_node("c0")
        assert node.disk is None


class TestNetworkModel:
    def test_transfer_time_includes_latency_and_bandwidth(self):
        cluster = make_cluster()
        a = cluster.add_node("a")
        b = cluster.add_node("b")
        done = []

        def proc():
            yield from cluster.network.transfer(a, b, 1000)
            done.append(cluster.now)

        cluster.sim.process(proc())
        cluster.run()
        # 1000 bytes at 1000 B/s on each NIC + 1 ms latency
        assert done[0] == pytest.approx(2.001)

    def test_local_transfer_is_free(self):
        cluster = make_cluster()
        a = cluster.add_node("a")
        done = []

        def proc():
            yield from cluster.network.transfer(a, a, 10_000_000)
            done.append(cluster.now)
            yield cluster.sim.timeout(0)

        cluster.sim.process(proc())
        cluster.run()
        assert done[0] == 0.0

    def test_concurrent_transfers_to_same_target_serialize_on_nic(self):
        cluster = make_cluster()
        sources = cluster.add_nodes("src", 2)
        target = cluster.add_node("dst")
        finish = []

        def sender(node):
            yield from cluster.network.transfer(node, target, 1000)
            finish.append(cluster.now)

        for node in sources:
            cluster.sim.process(sender(node))
        cluster.run()
        # both spend 1 s on their own NIC in parallel, then queue for 1 s each
        # on the receiver NIC
        assert max(finish) >= 3.0

    def test_queued_switches_fill_in_node_creation_order(self):
        """A job whose highest rank talks first still has ranks 0-15 on
        switch 0: the topology is ``placement_map``'s dense blocks, not
        first-come first-served."""
        cluster = make_cluster(network_model="queued", nodes_per_switch=16)
        ranks = cluster.place_ranks("r", 32)
        arrived = []

        def last_rank_talks_first():
            yield from cluster.network.transfer(ranks[31], ranks[0], 10)
            arrived.append(cluster.now)
            yield from cluster.network.transfer(ranks[31], ranks[16], 10)
            arrived.append(cluster.now)

        cluster.sim.process(last_rank_talks_first())
        cluster.run()
        assert [cluster.network.switch_of(node.name) for node in ranks] \
            == [0] * 16 + [1] * 16
        # and the transfers saw that topology: 31 -> 0 crossed switches
        # (uplink, 2.5x latency, downlink), 31 -> 16 stayed on one
        same_switch = 0.01 + 0.001 + 0.01
        assert arrived[0] == pytest.approx(same_switch + 2 * 0.0025 + 0.0025)
        assert arrived[1] - arrived[0] == pytest.approx(same_switch)

    def test_network_counters(self):
        cluster = make_cluster()
        a, b = cluster.add_node("a"), cluster.add_node("b")

        def proc():
            yield from cluster.network.transfer(a, b, 123)

        cluster.sim.process(proc())
        cluster.run()
        assert cluster.network.bytes_transferred == 123
        assert cluster.network.messages == 1


class TestDiskModel:
    def test_disk_io_time(self):
        cluster = make_cluster()
        node = cluster.add_node("s0", with_disk=True)
        done = []

        def proc():
            yield from node.disk_io(500)
            done.append(cluster.now)

        cluster.sim.process(proc())
        cluster.run()
        # 0.01 overhead + 500/500 = 1.01
        assert done[0] == pytest.approx(1.01)

    def test_disk_serializes_concurrent_io(self):
        cluster = make_cluster()
        node = cluster.add_node("s0", with_disk=True)
        finish = []

        def proc():
            yield from node.disk_io(500)
            finish.append(cluster.now)

        cluster.sim.process(proc())
        cluster.sim.process(proc())
        cluster.run()
        assert finish == [pytest.approx(1.01), pytest.approx(2.02)]

    def test_diskless_node_io_is_noop(self):
        cluster = make_cluster()
        node = cluster.add_node("c0")
        done = []

        def proc():
            yield from node.disk_io(10_000)
            done.append(cluster.now)
            yield cluster.sim.timeout(0)

        cluster.sim.process(proc())
        cluster.run()
        assert done == [0.0]

    def test_disk_counters_and_utilization(self):
        cluster = make_cluster()
        node = cluster.add_node("s0", with_disk=True)

        def proc():
            yield from node.disk_io(500)

        cluster.sim.process(proc())
        cluster.run()
        assert node.disk.operations == 1
        assert node.disk.bytes_transferred == 500
        assert 0.0 < node.disk.utilization(cluster.now) <= 1.0


class EchoService(Service):
    """Minimal service used to exercise the RPC transport."""

    def __init__(self, node):
        super().__init__(node, "echo")

    def echo(self, value):
        yield self.node.sim.timeout(0.5)
        return ("echo", value)


class TestRpc:
    def test_rpc_round_trip(self):
        cluster = make_cluster()
        client = cluster.add_node("client")
        server = cluster.add_node("server")
        service = EchoService(server)
        result = []

        def proc():
            reply = yield from cluster.rpc.call(client, service, "echo",
                                                100, 100, "hello")
            result.append((reply, cluster.now))

        cluster.sim.process(proc())
        cluster.run()
        reply, finished = result[0]
        assert reply == ("echo", "hello")
        # two transfers (0.201 s each) + 0.5 s handler
        assert finished == pytest.approx(0.902)
        assert service.calls["echo"] == 1
        assert cluster.rpc.total_calls == 1

    def test_rpc_unknown_method_raises(self):
        cluster = make_cluster()
        client = cluster.add_node("client")
        server = cluster.add_node("server")
        service = EchoService(server)

        def proc():
            yield from cluster.rpc.call(client, service, "missing", 1, 1)

        cluster.sim.process(proc())
        with pytest.raises(SimulationError):
            cluster.run()

    def test_stats_aggregate(self):
        cluster = make_cluster()
        client = cluster.add_node("client")
        server = cluster.add_node("server", with_disk=True)
        service = EchoService(server)

        def proc():
            yield from cluster.rpc.call(client, service, "echo", 10, 10, 1)
            yield from server.disk_io(100)

        cluster.sim.process(proc())
        cluster.run()
        stats = cluster.stats()
        assert stats["nodes"] == 2
        assert stats["rpc_calls"] == 1
        assert stats["disk_bytes"] == 100


class ComboService(Service):
    """Handler with positional, defaulted and keyword parameters, to pin
    the batch spec's optional args/kwargs members."""

    def __init__(self, node):
        super().__init__(node, "combo")

    def combine(self, value=0, scale=1, tag=""):
        yield self.node.sim.timeout(0.1)
        return (value * scale, tag)


class TestRpcBatch:
    def _cluster(self, **overrides):
        cluster = make_cluster(**overrides)
        client = cluster.add_node("client")
        service = ComboService(cluster.add_node("server"))
        return cluster, client, service

    def test_batch_specs_of_every_arity_in_call_order(self):
        """REGRESSION: a 6-member spec's kwargs dict used to be splatted
        into ``call`` as a second positional tuple instead of keyword
        arguments, so any batched call relying on keywords broke."""
        cluster, client, service = self._cluster()
        result = []

        def proc():
            replies = yield from cluster.rpc.call_batch(client, [
                (service, "combine", 10, 10),
                (service, "combine", 10, 10, (2,)),
                (service, "combine", 10, 10, (3,), {"scale": 10}),
                (service, "combine", 10, 10, (), {"value": 4, "tag": "kw"}),
            ])
            result.append(replies)

        cluster.sim.process(proc())
        cluster.run()
        assert result[0] == [(0, ""), (2, ""), (30, ""), (4, "kw")]
        assert service.calls["combine"] == 4

    def test_batch_threads_the_trace_parent_into_every_member(self):
        """REGRESSION: every member call's request/response link transfers
        must attach to the one span the caller opened for the fan-out, not
        float parentless."""
        cluster, client, service = self._cluster(tracing=True)

        def proc():
            yield from cluster.rpc.call_batch(client, [
                (service, "combine", 10, 10, (1,)),
                (service, "combine", 10, 10, (2,)),
            ], _trace_parent=777)

        cluster.sim.process(proc())
        cluster.run()
        link_spans = [span for span in cluster.obs.tracer.spans
                      if span.cat == "net"]
        assert link_spans
        assert all(span.parent_id == 777 for span in link_spans)
        # 2 member calls x (request + response) x (tx + rx NIC spans)
        assert len(link_spans) == 8
