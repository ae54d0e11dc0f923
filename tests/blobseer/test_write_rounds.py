"""An independent write too big for one round goes ahead in rounds.

A commit cuts its vector into k = ⌊bytes ÷ (providers spanned ×
``disk_overhead`` × ``disk_bandwidth``)⌋ rounds of consecutive stripe units,
so each provider's share of a round is at least a disk positioning's worth.
With k > 1 the write takes a collective stripe's path: one ``allocate`` for
the whole write, every round but the last staged ahead, and the metadata
stored while the rounds upload.  With k = 1 nothing changes.  These tests
pin the control plane of both paths, the overlap, and failure containment.
"""

import itertools
from collections import Counter, defaultdict

import pytest

from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.errors import ProviderUnavailable
from repro.vstore.client import VectoredClient

BLOB = "rounds"
MiB = 1024 * 1024
PROVIDERS = 8
SHARDS = 2


def make_writer(chunk_size, blob_size=8 * MiB):
    """A traced deployment of 8 providers with the default disks, and a
    writer that created the BLOB."""
    cluster = Cluster(config=ClusterConfig(tracing=True), seed=3)
    deployment = BlobSeerDeployment(cluster, num_providers=PROVIDERS,
                                    num_metadata_providers=SHARDS,
                                    chunk_size=chunk_size)
    writer = VectoredClient(deployment, cluster.add_node("writer"),
                            name="writer")
    run(cluster, writer.create_blob(BLOB, blob_size, chunk_size=chunk_size))
    return cluster, deployment, writer


def run(cluster, generator):
    process = cluster.sim.process(generator)
    return cluster.sim.run(stop_event=process)


def watch_stagings(writer):
    """Record every write :meth:`stage_ahead` sends ahead."""
    engine = writer.writepath
    real = engine.stage_ahead
    aheads = []

    def watched(blob_id, vector, ahead, part, **kwargs):
        if not any(seen is ahead for seen in aheads):
            aheads.append(ahead)
        real(blob_id, vector, ahead, part, **kwargs)

    engine.stage_ahead = watched
    return aheads


def spans(cluster, name):
    return [span for span in cluster.obs.tracer.spans if span.name == name]


def payload(size, seed):
    return bytes((index * 7 + seed) % 251 for index in range(size))


def test_a_dump_goes_ahead_in_seven_rounds_with_one_commits_control_plane():
    """4 MiB over 8 providers with 8 KiB chunks: ⌊4 MiB ÷ (8 × 70 MiB/s ×
    1 ms)⌋ = 7 rounds, each giving every provider one ``put_chunks``."""
    cluster, _deployment, writer = make_writer(8 * 1024)
    aheads = watch_stagings(writer)
    data = payload(4 * MiB, 1)
    run(cluster, writer.vwrite(BLOB, [(0, data)]))

    calls = Counter(span.name for span in cluster.obs.tracer.spans
                    if span.cat == "rpc" and span.name != "rpc.serve")
    assert {name: calls[name] for name in (
        "rpc.allocate", "rpc.assign_ticket", "rpc.put_nodes",
        "rpc.complete")} == {"rpc.allocate": 1, "rpc.assign_ticket": 1,
                             "rpc.put_nodes": SHARDS, "rpc.complete": 1}
    assert len({span.args["service"]
                for span in spans(cluster, "rpc.put_nodes")}) == SHARDS
    rounds = defaultdict(list)
    for span in spans(cluster, "rpc.put_chunks"):
        rounds[span.parent_id].append(span.args["service"])
    assert len(rounds) == 7
    assert all(sorted(services) == sorted(set(services))
               and len(services) == PROVIDERS for services in rounds.values())
    assert len(aheads) == 1 and len(aheads[0].stagings) == 7

    (store,) = spans(cluster, "commit.put_nodes")
    assert store.start < max(span.end
                             for span in spans(cluster, "rpc.put_chunks"))
    assert run(cluster, writer.vread(BLOB, [(0, len(data))])) == [data]


def test_a_write_worth_one_round_keeps_one_upload_per_provider():
    """512 KiB over 8 providers — an EXP1 write — is one round: one
    ``put_chunks`` per provider, and nothing staged ahead."""
    cluster, _deployment, writer = make_writer(64 * 1024)
    aheads = watch_stagings(writer)
    run(cluster, writer.vwrite(BLOB, [(0, payload(512 * 1024, 2))]))
    services = [span.args["service"]
                for span in spans(cluster, "rpc.put_chunks")]
    assert sorted(services) == sorted(set(services))
    assert len(services) == PROVIDERS
    assert aheads == []
    assert len(spans(cluster, "commit.upload")) == 1


def test_a_provider_dying_in_round_two_fails_the_write_and_nothing_else():
    """The provider dies under its third ``put_chunks``: the write raises
    the typed error, publishes no byte of its own, keeps nothing, leaves no
    staging running, and a later writer's snapshot publishes intact — the
    nodes are rolled back before the ticket is aborted."""
    cluster, deployment, writer = make_writer(8 * 1024)
    aheads = watch_stagings(writer)
    victim = deployment.data_provider("bs-data3")
    real_put_chunks = victim.put_chunks
    calls = itertools.count()

    def dying(items):
        if next(calls) == 2:
            deployment.fail_provider("bs-data3")
        stored = yield from real_put_chunks(items)
        return stored
    victim.put_chunks = dying

    order = []
    for shard in deployment.metadata_providers:
        def removing(keys, _real=shard.remove_nodes):
            order.append("remove_nodes")
            removed = yield from _real(keys)
            return removed
        shard.remove_nodes = removing
    manager_service = deployment.version_manager
    real_abort = manager_service.abort

    def aborting(blob_id, version):
        order.append("abort")
        latest = yield from real_abort(blob_id, version)
        return latest
    manager_service.abort = aborting

    with pytest.raises(ProviderUnavailable):
        run(cluster, writer.vwrite(BLOB, [(0, payload(4 * MiB, 3))]))

    # the ticket was taken while the rounds uploaded; aborted, it publishes
    # empty, so the latest snapshot still reads as it did before the write
    manager = deployment.version_manager.manager
    assert manager.tickets_aborted == 1
    assert manager.pending_versions(BLOB) == []
    aborted = manager.latest_published(BLOB)
    assert order == ["remove_nodes"] * SHARDS + ["abort"]
    assert len(aheads) == 1 and len(aheads[0].stagings) == 7
    assert not any(process.is_alive for process in aheads[0].stagings)
    assert writer.chunk_cache.resident_bytes == 0

    later = VectoredClient(deployment, cluster.add_node("later"),
                           name="later")
    patch = payload(64 * 1024, 4)
    assert run(cluster, later.vread(BLOB, [(0, 4 * MiB)], aborted)) \
        == [bytes(4 * MiB)]
    receipt = run(cluster, later.vwrite_and_wait(BLOB, [(1 * MiB, patch)]))
    assert manager.latest_published(BLOB) == receipt.version == aborted + 1
    expected = bytearray(4 * MiB)
    expected[1 * MiB:1 * MiB + len(patch)] = patch
    assert run(cluster, later.vread(BLOB, [(0, 4 * MiB)],
                                    receipt.version)) == [bytes(expected)]


def test_a_queued_batch_across_a_round_cut_publishes_the_serial_result():
    """Overlapping queued writes, merged into one batch big enough for
    several rounds, so later writes land in later rounds than the bytes
    they overwrite: one snapshot, equal to the writes applied in order."""
    cluster, deployment, writer = make_writer(8 * 1024)
    aheads = watch_stagings(writer)
    writes = [[(0, payload(3 * MiB, 5))],
              [(512 * 1024 + 100, payload(2 * MiB, 6)),
               (100, payload(9000, 7))],
              [(3 * MiB - 5000, payload(1 * MiB, 8))],
              [(2 * MiB + 17, payload(40000, 9))]]

    def batch():
        for pairs in writes:
            yield from writer.vwrite_queued(BLOB, pairs)
        receipts = yield from writer.vbarrier(BLOB)
        return receipts

    (receipt,) = run(cluster, batch())
    assert receipt.logical_writes == len(writes)
    assert len(aheads) == 1 and len(aheads[0].stagings) > 1
    manager = deployment.version_manager.manager
    assert manager.latest_published(BLOB) == receipt.version == 1

    expected = bytearray(4 * MiB)
    for pairs in writes:
        for offset, data in pairs:
            expected[offset:offset + len(data)] = data
    reader = VectoredClient(deployment, cluster.add_node("reader"),
                            name="reader")
    assert run(cluster, reader.vread(BLOB, [(0, 4 * MiB)], 1)) \
        == [bytes(expected)]
