"""The chunk cache is transparent: a writer reads what anybody would.

Several clients run random programs of overlapping vectored writes and reads
of random ranges at random *published* versions, interleaved by random think
times, each behind a chunk cache of a few dozen bytes — so entries are
evicted while the sequence runs and a read is typically part memory, part
providers.  Every result must equal what a client that never wrote (its
cache stays empty) reads for the same ranges of the same version.
"""

from hypothesis import given, settings, strategies as st

from repro.blobseer.chunk_cache import ChunkCache
from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.vstore.client import VectoredClient

BLOB = "prop"
BLOB_SIZE = 384
CHUNK = 32
WRITERS = 3
#: a write of up to three regions of up to 48 bytes rarely fits
CACHE_BYTES = 80

ranges = st.lists(
    st.tuples(st.integers(0, BLOB_SIZE - 48), st.integers(1, 48)),
    min_size=1, max_size=3)
#: ("w", ranges) | ("r", ranges, which published version, as a fraction)
steps = st.one_of(
    st.tuples(st.just("w"), ranges),
    st.tuples(st.just("r"), ranges, st.floats(0.0, 1.0)))
programs = st.lists(
    st.tuples(st.floats(0.0, 2e-3), steps), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(jobs=st.lists(programs, min_size=WRITERS, max_size=WRITERS))
def test_a_writer_reads_what_a_client_that_never_wrote_reads(jobs):
    cluster = Cluster(config=ClusterConfig(network_latency=1e-5), seed=7)
    deployment = BlobSeerDeployment(cluster, num_providers=2,
                                    num_metadata_providers=2,
                                    chunk_size=CHUNK)
    clients = [VectoredClient(deployment, cluster.add_node(f"rank{index}"),
                              name=f"rank{index}")
               for index in range(WRITERS)]
    for client in clients:
        client.chunk_cache = ChunkCache(CACHE_BYTES)
    bystander = VectoredClient(deployment, cluster.add_node("bystander"),
                               name="bystander")
    observed = []  # (version, ranges, what the writer read)

    def program(index, client, job):
        fill = 0
        for think, step in job:
            yield cluster.sim.timeout(think)
            if step[0] == "w":
                fill += 1
                yield from client.vwrite_and_wait(
                    BLOB, [(offset, bytes([index * 80 + fill]) * size)
                           for offset, size in step[1]])
            else:
                latest = yield from client.latest_version(BLOB)
                version = round(step[2] * latest)
                pieces = yield from client.vread(BLOB, step[1],
                                                 version=version)
                observed.append((version, step[1], pieces))

    def scenario():
        yield from bystander.create_blob(BLOB, BLOB_SIZE, chunk_size=CHUNK)
        yield cluster.sim.all_of(
            [cluster.sim.process(program(index, client, job))
             for index, (client, job) in enumerate(zip(clients, jobs))])
        # published snapshots never change: the reference reads come last
        for version, wanted, pieces in observed:
            reference = yield from bystander.vread(BLOB, wanted,
                                                   version=version)
            assert pieces == reference, (version, wanted)

    cluster.sim.run(stop_event=cluster.sim.process(scenario()))

    assert bystander.chunk_cache.stats.hits == 0
    for client in clients:
        cache = client.chunk_cache
        assert cache.resident_bytes <= CACHE_BYTES
        assert cache.stats.lookups == cache.stats.hits + client.extents_fetched
        # the bound bit whenever it had to: eviction is part of the sequence
        assert cache.stats.evictions or client.bytes_written <= CACHE_BYTES
