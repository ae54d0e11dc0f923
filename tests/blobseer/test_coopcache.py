"""Unit and property tests for the cooperative cross-node cache tier.

The tier's load-bearing properties:

* **role purity** — :func:`role_for` / :func:`custodian_index` are pure
  stable-hash functions of names alone: no RNG scope is consulted (so the
  tier can never perturb workload bytes or fuzz replay) and every process
  and every replay computes the same roles;
* **routing** — a prober asks the key's custodian, a self-custodian asks
  the first provider along the ring, one-node clusters ask nobody;
* **probe semantics** — pool answers come from the stat-free ``peek``
  (the fall-through identity stays exact), providers read through on a
  miss (coalesced, gated), samplers answer :data:`PEER_MISS`, a dead
  service answers "unavailable";
* **byte identity** — for any placement of clients onto nodes, reads
  return the same bytes with the tier on or off.
"""

import random

import pytest

from repro.blobseer.deployment import BlobSeerDeployment
from repro.blobseer.metadata import coopcache
from repro.blobseer.metadata.coopcache import (
    PEER_MISS,
    PROVIDER,
    SAMPLER,
    custodian_index,
    role_for,
)
from repro.blobseer.metadata.nodes import MetadataNode, NodeKey
from repro.blobseer.metadata.sharedcache import FETCH_FAILED
from repro.blobseer.metadata.tiers import Tier
from repro.cluster import Cluster, ClusterConfig
from repro.vstore.client import VectoredClient

BLOB = "coop-blob"
FILE_SIZE = 1 << 20
CHUNK = 4096


@pytest.fixture
def all_providers(monkeypatch):
    """Every (node, blob) pair in the provider role."""
    monkeypatch.setattr(coopcache, "PROVIDER_FRACTION", 1.0)


@pytest.fixture
def all_samplers(monkeypatch):
    """Every (node, blob) pair in the sampler role."""
    monkeypatch.setattr(coopcache, "PROVIDER_FRACTION", 0.0)


def build(num_nodes=3, **config_overrides):
    config_overrides.setdefault("shared_metadata_cache", True)
    config_overrides.setdefault("cooperative_cache", True)
    cluster = Cluster(config=ClusterConfig(**config_overrides))
    deployment = BlobSeerDeployment(cluster, num_providers=2,
                                    num_metadata_providers=2,
                                    chunk_size=CHUNK)
    nodes = [cluster.add_node(f"cn{index}") for index in range(num_nodes)]
    return cluster, deployment, nodes


def enroll(deployment, nodes):
    return [deployment.coop_peer(node) for node in nodes]


def run(cluster, generator):
    process = cluster.sim.process(generator)
    cluster.sim.run(stop_event=process)
    return process.value


def complete(generator):
    """Exhaust a generator that must finish without yielding."""
    try:
        next(generator)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("generator yielded where none was expected")


def finish(generator, send):
    """Resume a parked generator and return its final value."""
    try:
        generator.send(send)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("generator yielded again")


def make_node(version=1, offset=0, size=64, blob=BLOB):
    return MetadataNode(key=NodeKey(blob, version, offset, size),
                        is_leaf=True, segments=(), base_version=0)


class FakeShards(Tier):
    """A terminal tier standing in for the metadata shards: answers every
    lookup with ``node`` (or raises ``error``) without touching the wire."""

    name = "shards"

    def __init__(self, node=None, error=None):
        self.node = node
        self.error = error
        self.fetches = []

    def lookup(self, blob_id, requests, wanted=None):
        self.fetches.extend((blob_id, *request) for request in requests)
        if self.error is not None:
            raise self.error
        return {request: self.node for request in requests}, []
        yield  # pragma: no cover - generator shape


class TestRoles:
    def test_role_is_a_pure_function_of_the_names(self):
        for node in ("cn0", "cn1", "compute-17"):
            for blob in ("a", "b", "/dump"):
                first = role_for(node, blob)
                assert first in (PROVIDER, SAMPLER)
                assert all(role_for(node, blob) == first for _ in range(5))

    def test_half_the_pairs_are_providers(self):
        assert coopcache.PROVIDER_FRACTION == 0.5
        names = [f"cn{index}" for index in range(64)]
        roles = [role_for(name, BLOB) for name in names]
        assert 16 <= roles.count(PROVIDER) <= 48  # both roles really occur

    def test_fraction_bounds(self, monkeypatch):
        names = [f"cn{index}" for index in range(64)]
        monkeypatch.setattr(coopcache, "PROVIDER_FRACTION", 0.0)
        assert all(role_for(name, BLOB) == SAMPLER for name in names)
        monkeypatch.setattr(coopcache, "PROVIDER_FRACTION", 1.0)
        assert all(role_for(name, BLOB) == PROVIDER for name in names)

    def test_roles_differ_per_blob(self):
        # one node is not globally a provider: the role re-rolls per blob
        blobs = [f"blob{index}" for index in range(64)]
        roles = {role_for("cn0", blob) for blob in blobs}
        assert roles == {PROVIDER, SAMPLER}

    def test_custody_is_stable_and_in_range(self):
        for count in (1, 2, 3, 7):
            for offset in (0, 64, 4096):
                slot = custodian_index(BLOB, offset, 64, count)
                assert 0 <= slot < count
                assert custodian_index(BLOB, offset, 64, count) == slot

    def test_role_and_custody_draw_from_no_rng_stream(self):
        """The purity property: computing roles, custody and routes for
        many keys must neither create a new RNG stream nor advance any
        existing stream — replacing the tier's determinism with sampling
        would silently couple it to workload bytes and fuzz replay."""
        cluster, deployment, nodes = build()
        directory = deployment.coop_peer(nodes[0]).directory
        enroll(deployment, nodes)
        rng = cluster.sim.rng
        rng.scope("network").stream("jitter")  # a live stream to watch
        before = {name: repr(stream.bit_generator.state)
                  for name, stream in rng._streams.items()}
        for index in range(200):
            role_for(nodes[index % 3].name, f"blob{index}")
            custodian_index(f"blob{index}", index * 64, 64, 3)
            directory.route(nodes[index % 3].name, BLOB, index * 64, 64)
        after = {name: repr(stream.bit_generator.state)
                 for name, stream in rng._streams.items()}
        assert before == after


class TestRouting:
    def test_lonely_cluster_routes_nowhere(self):
        _, deployment, nodes = build(num_nodes=1)
        service, = enroll(deployment, nodes[:1])
        assert service.directory.route("cn0", BLOB, 0, 64) is None

    def test_prober_is_sent_to_the_custodian(self):
        _, deployment, nodes = build()
        enroll(deployment, nodes)
        directory = deployment.coop_directory
        participants = directory.participants()
        for offset in range(0, 64 * 64, 64):
            custodian = participants[
                custodian_index(BLOB, offset, 64, len(participants))]
            for prober in participants:
                target = directory.route(prober, BLOB, offset, 64)
                if custodian != prober:
                    assert target is directory.services[custodian]
                else:
                    assert target is None \
                        or target.node.name != prober

    def test_self_custodian_falls_back_to_a_ring_provider(self,
                                                          all_providers):
        _, deployment, nodes = build()
        enroll(deployment, nodes)
        directory = deployment.coop_directory
        participants = directory.participants()
        # find a key this prober has custody of; with every node a
        # provider the fallback is the next ring member after the slot
        for offset in range(0, 64 * 256, 64):
            slot = custodian_index(BLOB, offset, 64, len(participants))
            prober = participants[slot]
            target = directory.route(prober, BLOB, offset, 64)
            expected = participants[(slot + 1) % len(participants)]
            assert target is directory.services[expected]
            break

    def test_self_custodian_with_no_providers_goes_to_the_shards(
            self, all_samplers):
        _, deployment, nodes = build()
        enroll(deployment, nodes)
        directory = deployment.coop_directory
        participants = directory.participants()
        for offset in range(0, 64 * 256, 64):
            slot = custodian_index(BLOB, offset, 64, len(participants))
            assert directory.route(participants[slot], BLOB,
                                   offset, 64) is None

    def test_registration_is_idempotent(self):
        _, deployment, nodes = build()
        first = deployment.coop_peer(nodes[0])
        again = deployment.coop_peer(nodes[0])
        assert first is again
        assert deployment.coop_directory.participants() == ["cn0"]


@pytest.fixture
def sampler(all_samplers):
    """``(cluster, one enrolled peer service)``, every node a sampler."""
    cluster, deployment, nodes = build()
    return cluster, enroll(deployment, nodes)[0]


@pytest.fixture
def provider(all_providers):
    """``(cluster, one enrolled peer service)``, every node a provider."""
    cluster, deployment, nodes = build()
    return cluster, enroll(deployment, nodes)[0]


class TestProbe:
    def test_dead_service_answers_unavailable_and_drops_its_pool(
            self, sampler):
        cluster, service = sampler
        pool = service.pool
        pool.note_published(BLOB, 1)
        pool.publish(BLOB, 0, 64, 1, make_node())
        service.kill()
        assert len(pool) == 0  # its memory died with the daemon
        answer = complete(service.probe(BLOB, [(0, 64, 1)], watermark=1))
        assert answer is None
        assert service.stats.unavailable_probes == 1
        assert service.stats.lookups == 0

    def test_sampler_miss_is_a_peer_miss(self, sampler):
        _, service = sampler
        answer = complete(service.probe(BLOB, [(0, 64, 1)], watermark=1))
        assert answer == [PEER_MISS]
        assert service.stats.misses == 1
        assert service.stats.read_throughs == 0

    def test_pool_hit_is_served_stat_free(self, sampler):
        """A remote probe must not count as a pool lookup: the local
        fall-through identity equates pool lookups with the node's own
        tenants' private misses, and a probe is neither."""
        _, service = sampler
        pool = service.pool
        pool.note_published(BLOB, 1)
        node = make_node()
        pool.publish(BLOB, 0, 64, 1, node)
        hits, misses = pool.stats.hits, pool.stats.misses
        answer = complete(service.probe(BLOB, [(0, 64, 1)], watermark=1))
        assert answer == [node]
        assert service.stats.hits == 1
        assert (pool.stats.hits, pool.stats.misses) == (hits, misses)

    def test_probe_watermark_feeds_the_receiving_gate(self, sampler):
        _, service = sampler
        assert service.pool.watermark(BLOB) == 0
        complete(service.probe(BLOB, [(0, 64, 7)], watermark=7))
        assert service.pool.watermark(BLOB) == 7

    def test_cached_negative_is_an_answer_not_a_miss(self, sampler):
        _, service = sampler
        pool = service.pool
        pool.note_published(BLOB, 1)
        pool.publish(BLOB, 0, 64, 1, None)
        answer = complete(service.probe(BLOB, [(0, 64, 1)], watermark=1))
        assert answer == [None]
        assert service.stats.hits == 1

    def test_provider_reads_through_and_admits_gated(self, provider):
        cluster, service = provider
        node = make_node()
        shards = FakeShards(node)
        service.upstream.inner = [shards]
        answer = complete(service.probe(BLOB, [(0, 64, 1)], watermark=1))
        assert answer == [node]
        assert shards.fetches == [(BLOB, 0, 64, 1)]
        assert service.stats.read_throughs == 1
        assert service.stats.hits == 1
        # admitted through the gate the prober's watermark opened
        found, cached = service.pool.peek(BLOB, 0, 64, 1)
        assert found and cached is node
        assert not service.pool._inflight  # leader resolved its entry

    def test_failed_read_through_degrades_to_a_miss(self, provider):
        cluster, service = provider
        service.upstream.inner = [
            FakeShards(error=RuntimeError("shard unreachable"))]
        answer = complete(service.probe(BLOB, [(0, 64, 1)], watermark=1))
        assert answer == [PEER_MISS]
        assert service.stats.misses == 1
        assert not service.pool._inflight  # aborted, never leaked

    def test_read_through_parks_on_a_service_led_fetch(self, provider):
        cluster, service = provider
        node = make_node()
        leader, _event = service.pool.coalesce(
            cluster.sim, BLOB, 0, 64, 1, owner="service")
        assert leader
        _owner, event = service.pool._inflight[(BLOB, 0, 64, 1)]
        generator = service.probe(BLOB, [(0, 64, 1)], watermark=1)
        parked_on = next(generator)  # the probe parked instead of fetching
        assert parked_on is event
        assert finish(generator, node) == [node]
        assert service.pool.stats.coalesced_fetches == 1
        assert service.stats.read_throughs == 0  # the leader's fetch, not ours

    def test_parked_read_through_survives_a_failed_leader(self, provider):
        cluster, service = provider
        service.pool.coalesce(cluster.sim, BLOB, 0, 64, 1, owner="service")
        generator = service.probe(BLOB, [(0, 64, 1)], watermark=1)
        next(generator)
        assert finish(generator, FETCH_FAILED) == [PEER_MISS]

    def test_read_through_never_parks_on_a_client_led_fetch(self, provider):
        """Cycle prevention: an RPC handler parked behind a *client*-led
        fetch could close a cross-node wait cycle (two clients each
        leading a key while their probes park on each other); the handler
        must answer "miss" instead."""
        cluster, service = provider
        service.pool.coalesce(cluster.sim, BLOB, 0, 64, 1, owner="client")
        answer = complete(service.probe(BLOB, [(0, 64, 1)], watermark=1))
        assert answer == [PEER_MISS]
        assert service.pool.stats.coalesced_fetches == 0


class TestEndToEnd:
    def _scan(self, client, size=16 * CHUNK):
        pieces = yield from client.vread(BLOB, [(0, size)], 1)
        return pieces

    def test_remote_peer_answers_a_cold_node(self, all_providers):
        """With every node a provider, a cold node's first reader resolves
        the whole walk over peer probes — zero authoritative fetches of
        its own."""
        cluster, deployment, nodes = build()
        seeder = VectoredClient(deployment, cluster.add_node("seed"),
                                name="s", shared_metadata_cache=False)
        warm = VectoredClient(deployment, nodes[0], name="warm")
        cold = VectoredClient(deployment, nodes[1], name="cold")
        VectoredClient(deployment, nodes[2], name="bystander")

        def main():
            yield from seeder.create_blob(BLOB, FILE_SIZE)
            yield from seeder.vwrite_and_wait(BLOB, [(0, b"p" * 16 * CHUNK)])
            yield from self._scan(warm)
            pieces = yield from self._scan(cold)
            return pieces

        assert run(cluster, main()) == [b"p" * 16 * CHUNK]
        assert cold.tiers.count("peers", "hits") > 0
        assert cold.tiers.fetched_lookups == 0
        assert cold.tiers.count("peers", "probe_rpcs") > 0
        stats = deployment.coop_stats()
        assert stats["served_hits"] == sum(
            client.tiers.count("peers", "hits")
            + client.tiers.count("peers", "rejections")
            for client in (cold, warm))

    def test_dead_peer_costs_rpcs_never_bytes(self, all_providers):
        cluster, deployment, nodes = build()
        seeder = VectoredClient(deployment, cluster.add_node("seed"),
                                name="s", shared_metadata_cache=False)
        reader = VectoredClient(deployment, nodes[0], name="r")
        for node in nodes[1:]:
            VectoredClient(deployment, node, name=f"tenant-{node.name}")

        def main():
            yield from seeder.create_blob(BLOB, FILE_SIZE)
            yield from seeder.vwrite_and_wait(BLOB, [(0, b"d" * 16 * CHUNK)])
            for service in deployment.coop_directory.services.values():
                if service.node.name != nodes[0].name:
                    service.kill()
            pieces = yield from self._scan(reader)
            return pieces

        assert run(cluster, main()) == [b"d" * 16 * CHUNK]
        assert reader.tiers.count("peers", "hits") == 0
        assert reader.tiers.fetched_lookups > 0  # authoritative fallback
        assert deployment.coop_stats()["unavailable_probes"] > 0

    def test_disabled_tier_has_no_directory_and_no_counters(self):
        cluster, deployment, nodes = build(cooperative_cache=False)
        seeder = VectoredClient(deployment, cluster.add_node("seed"),
                                name="s", shared_metadata_cache=False)
        readers = [VectoredClient(deployment, node, name=f"r{index}")
                   for index, node in enumerate(nodes)]

        def main():
            yield from seeder.create_blob(BLOB, FILE_SIZE)
            yield from seeder.vwrite_and_wait(BLOB, [(0, b"q" * 16 * CHUNK)])
            for reader in readers:
                yield from self._scan(reader)

        run(cluster, main())
        assert deployment.coop_directory is None
        for reader in readers:
            assert reader.tiers.find("peers") is None
            assert reader.tiers.find("coalesce") is None

    @pytest.mark.parametrize("placement_seed", [0, 1, 2])
    def test_any_placement_reads_byte_identically_coop_on_and_off(
            self, placement_seed):
        """The byte-identity property: for an arbitrary assignment of
        clients to compute nodes, every client reads exactly the same
        bytes with the cooperative tier on or off."""
        payload = bytes(range(256)) * (16 * CHUNK // 256)
        placement = [random.Random(placement_seed).randrange(3)
                     for _ in range(5)]

        def run_mode(cooperative):
            cluster, deployment, nodes = build(cooperative_cache=cooperative)
            seeder = VectoredClient(deployment, cluster.add_node("seed"),
                                    name="s", shared_metadata_cache=False)
            clients = [
                VectoredClient(deployment, nodes[node_index],
                               name=f"r{index}")
                for index, node_index in enumerate(placement)]
            observed = {}

            def main():
                yield from seeder.create_blob(BLOB, FILE_SIZE)
                yield from seeder.vwrite_and_wait(BLOB, [(0, payload)])
                for index, client in enumerate(clients):
                    offset = (index % 3) * 4 * CHUNK
                    pieces = yield from client.vread(
                        BLOB, [(offset, 4 * CHUNK)], 1)
                    observed[index] = pieces[0]

            run(cluster, main())
            return observed

        with_coop = run_mode(True)
        without = run_mode(False)
        assert with_coop == without
        for index, node_index in enumerate(placement):
            expected_offset = (index % 3) * 4 * CHUNK
            assert with_coop[index] \
                == payload[expected_offset:expected_offset + 4 * CHUNK]

    def test_replay_is_identical(self):
        """Two fresh runs of the same cooperative scenario produce the
        same counters everywhere — roles and custody are replay-stable."""

        def one_run():
            cluster, deployment, nodes = build()
            seeder = VectoredClient(deployment, cluster.add_node("seed"),
                                    name="s", shared_metadata_cache=False)
            clients = [VectoredClient(deployment, node, name=f"r{index}")
                       for index, node in enumerate(nodes)]

            def main():
                yield from seeder.create_blob(BLOB, FILE_SIZE)
                yield from seeder.vwrite_and_wait(
                    BLOB, [(0, b"i" * 16 * CHUNK)])
                for client in clients:
                    yield from self._scan(client)

            run(cluster, main())
            return ([vars(tier.stats) for client in clients
                     for tier in client.tiers.tiers],
                    deployment.coop_stats(), cluster.sim.now)

        assert one_run() == one_run()
