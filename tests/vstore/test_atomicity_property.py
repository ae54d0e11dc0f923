"""Property-based test of the paper's central claim.

For arbitrary sets of concurrent, overlapping, non-contiguous vectored writes
executed through the versioning backend, every published snapshot — and in
particular the final one — must equal the result of applying the whole
vectored writes in *some* serial order (MPI atomicity).  The serialization
the backend promises is its version-ticket order, which is also checked
explicitly.
"""

from hypothesis import given, settings, strategies as st

from repro.blobseer import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.core.atomicity import VectoredWrite, apply_writes, check_mpi_atomicity
from repro.core.listio import IOVector
from repro.vstore.client import VectoredClient

BLOB_SIZE = 512
CHUNK_SIZE = 32


@st.composite
def write_vectors(draw, max_writers=4, max_regions=3, max_region_size=48):
    """A list of per-writer vectored writes with plenty of overlap potential."""
    writer_count = draw(st.integers(1, max_writers))
    vectors = []
    for writer in range(writer_count):
        region_count = draw(st.integers(1, max_regions))
        pairs = []
        for index in range(region_count):
            offset = draw(st.integers(0, BLOB_SIZE - max_region_size))
            size = draw(st.integers(1, max_region_size))
            fill = bytes([65 + writer]) * size  # 'A' for writer 0, 'B' for 1, ...
            pairs.append((offset, fill))
        vectors.append(pairs)
    return vectors


def run_concurrent_vwrites(vectors, jitter_seed=0):
    """Execute one vectored write per writer concurrently; return final content."""
    cluster = Cluster(config=ClusterConfig(network_latency=1e-5), seed=jitter_seed)
    deployment = BlobSeerDeployment(cluster, num_providers=3,
                                    num_metadata_providers=2,
                                    chunk_size=CHUNK_SIZE)
    nodes = cluster.add_nodes("rank", len(vectors))
    clients = [VectoredClient(deployment, node, name=f"rank{index}")
               for index, node in enumerate(nodes)]

    def writer(client, pairs, delay):
        # a small per-writer start jitter makes uploads interleave differently
        yield cluster.sim.timeout(delay)
        receipt = yield from client.vwrite("shared", pairs)
        return receipt.version

    def scenario():
        yield from clients[0].create_blob("shared", size=BLOB_SIZE,
                                          chunk_size=CHUNK_SIZE)
        processes = []
        for index, (client, pairs) in enumerate(zip(clients, vectors)):
            delay = float(cluster.sim.rng.stream(f"start:{index}").uniform(0, 1e-3))
            processes.append(cluster.sim.process(writer(client, pairs, delay)))
        yield cluster.sim.all_of(processes)
        versions = [process.value for process in processes]
        yield from clients[0].wait_published("shared", max(versions))
        final = yield from clients[0].vread("shared", [(0, BLOB_SIZE)])
        return versions, final[0]

    process = cluster.sim.process(scenario())
    return cluster.sim.run(stop_event=process)


@settings(max_examples=25, deadline=None)
@given(vectors=write_vectors())
def test_concurrent_vectored_writes_are_mpi_atomic(vectors):
    versions, final = run_concurrent_vwrites(vectors)

    writes = [VectoredWrite(writer_id, IOVector.for_write(pairs))
              for writer_id, pairs in enumerate(vectors)]
    initial = b"\x00" * BLOB_SIZE

    # 1. the final state is some serialization of the whole vectored writes
    assert check_mpi_atomicity(initial, writes, final)

    # 2. it is specifically the version-ticket serialization the backend promises
    order = sorted(range(len(versions)), key=lambda index: versions[index])
    expected = apply_writes(initial, writes, order)[:BLOB_SIZE]
    assert final == expected


@settings(max_examples=10, deadline=None)
@given(vectors=write_vectors(max_writers=3), seed=st.integers(0, 3))
def test_atomicity_independent_of_timing(vectors, seed):
    """Different network/start timings may change the order, never atomicity."""
    _versions, final = run_concurrent_vwrites(vectors, jitter_seed=seed)
    writes = [VectoredWrite(writer_id, IOVector.for_write(pairs))
              for writer_id, pairs in enumerate(vectors)]
    assert check_mpi_atomicity(b"\x00" * BLOB_SIZE, writes, final)
