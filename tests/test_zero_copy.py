"""A payload byte is stored once, and no reader sees it change.

A BlobSeer chunk is never rewritten, so the chunk a data provider stores —
and the writer's chunk cache holds — is the payload object the writer
handed over, or a read-only view of it: never a copy.  A mutable payload
is frozen once, where it enters a write vector, so changing the caller's
buffer afterwards changes nothing stored.  A read copies each byte once,
into ``bytes``: no view of a stored chunk leaves a public read, and an
MPI-I/O read — independent or collective, on any driver — fills one buffer
with one join.
"""

import tracemalloc

import pytest

from repro.bench.environment import BACKENDS, build_environment
from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.core.listio import IOVector
from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.mpiio.flatten import build_read_vector
from repro.posixfs import PosixClient, PosixFsDeployment
from repro.vstore.client import VectoredClient

BLOB = "zc"
CHUNK = 256
FILE_SIZE = 16 * 1024
QUICK = ClusterConfig(network_latency=1e-5, disk_overhead=1e-4)


def run(cluster, generator):
    return cluster.sim.run(stop_event=cluster.sim.process(generator))


def make_clients(count=2):
    cluster = Cluster(config=QUICK, seed=1)
    deployment = BlobSeerDeployment(cluster, num_providers=3,
                                    num_metadata_providers=2,
                                    chunk_size=CHUNK)
    clients = [VectoredClient(deployment, cluster.add_node(f"c{index}"),
                              name=f"c{index}") for index in range(count)]
    run(cluster, clients[0].create_blob(BLOB, FILE_SIZE))
    return cluster, deployment, clients


def buffer_of(chunk):
    """The object holding a stored chunk's bytes."""
    return chunk.obj if type(chunk) is memoryview else chunk


def stored_chunks(deployment):
    return [chunk for provider in deployment.data_providers.values()
            for chunk in provider.store._chunks.values()]


def payload(size, seed):
    return bytes((index * 7 + seed) % 251 for index in range(size))


# ----------------------------------------------------------------------
# the write path keeps the caller's buffer
# ----------------------------------------------------------------------
def test_an_independent_vwrite_stores_views_of_the_callers_payload():
    cluster, deployment, (client, _other) = make_clients()
    # three chunks' worth across four chunks, one piece inside one chunk
    spanning, inside = payload(3 * CHUNK, 1), payload(40, 2)
    run(cluster, client.vwrite(BLOB, [(100, spanning), (2000, inside)]))
    chunks = stored_chunks(deployment)
    assert len(chunks) == 5
    assert {id(buffer_of(chunk)) for chunk in chunks} \
        == {id(spanning), id(inside)}
    # a piece that is its whole request is the request's buffer itself
    assert any(chunk is inside for chunk in chunks)
    assert all(chunk.readonly for chunk in chunks
               if type(chunk) is memoryview)


def test_a_noncontiguous_file_write_stores_its_payload_once():
    """A rank's payload scattered by its file view over several chunks:
    the distinct buffers behind every provider's chunks are the ranks'
    payloads, and they add up to the bytes the job wrote."""
    environment = build_environment("versioning", num_storage_nodes=3,
                                    stripe_unit=CHUNK, config=QUICK)
    filetype = Indexed([300, 100, 500], [0, 1000, 1400], base=BYTE)
    payloads = [payload(filetype.size, rank) for rank in range(4)]

    def rank_main(ctx):
        driver = environment.driver_factory(ctx)
        handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=4 * 2048)
        handle.set_view(displacement=ctx.rank * 2048, filetype=filetype)
        yield from handle.write_at(0, payloads[ctx.rank])
        yield from handle.close()

    run_mpi_job(environment.cluster, 4, rank_main)
    chunks = stored_chunks(environment.deployment)
    buffers = {id(buffer_of(chunk)): buffer_of(chunk) for chunk in chunks}
    assert set(buffers) == {id(data) for data in payloads}
    assert sum(len(buffer) for buffer in buffers.values()) \
        == sum(len(chunk) for chunk in chunks) \
        == sum(len(data) for data in payloads)
    assert len(chunks) > len(buffers)


# ----------------------------------------------------------------------
# a mutable payload is frozen once
# ----------------------------------------------------------------------
def test_a_bytearray_mutated_after_vwrite_reads_back_as_written():
    cluster, _deployment, (client, other) = make_clients()
    data = bytearray(payload(600, 3))
    written = bytes(data)
    run(cluster, client.vwrite(BLOB, [(50, data)]))
    data[:] = bytes(len(data))
    for reader in (client, other):
        assert run(cluster, reader.vread(BLOB, [(50, 600)])) == [written]


def test_a_bytearray_in_a_write_vector_is_frozen_when_the_vector_is_built():
    cluster, _deployment, (client, other) = make_clients()
    data = bytearray(payload(600, 4))
    written = bytes(data)
    vector = IOVector.for_write([(0, data), (1000, memoryview(data)[:10])])
    data[:] = bytes(len(data))
    assert all(type(request.data) is bytes for request in vector)
    run(cluster, client.vwrite(BLOB, vector))
    for reader in (client, other):
        assert run(cluster, reader.vread(BLOB, [(0, 600), (1000, 10)])) \
            == [written, written[:10]]


@pytest.mark.parametrize("backend", ["versioning", "posix-locking"])
def test_a_bytearray_mutated_after_write_at_reads_back_as_written(backend):
    environment = build_environment(backend, num_storage_nodes=3,
                                    stripe_unit=CHUNK, config=QUICK)
    filetype = Indexed([300, 100], [0, 700], base=BYTE)
    data = bytearray(payload(400, 5))
    written = bytes(data)

    def rank_main(ctx):
        driver = environment.driver_factory(ctx)
        handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        handle.set_view(displacement=10, filetype=filetype)
        yield from handle.write_at(0, data)
        data[:] = bytes(len(data))
        read = yield from handle.read_at(0, len(written))
        yield from handle.close()
        return read

    assert run_mpi_job(environment.cluster, 1, rank_main).results == [written]


# ----------------------------------------------------------------------
# every public read returns bytes
# ----------------------------------------------------------------------
def test_every_blob_client_read_returns_bytes():
    cluster, _deployment, (client, other) = make_clients()
    data = payload(5 * CHUNK, 6)
    run(cluster, client.vwrite(BLOB, [(CHUNK // 2, data)]))
    ranges = [(0, 8 * CHUNK), (CHUNK, CHUNK), (CHUNK // 2, 10),
              (CHUNK + 3, 2 * CHUNK), (4000, 20)]
    for reader in (client, other):  # its cache, the providers
        pieces = run(cluster, reader.vread(BLOB, ranges))
        assert [type(piece) for piece in pieces] == [bytes] * len(ranges)
        image = bytes(CHUNK // 2) + data + bytes(FILE_SIZE)
        assert pieces == [image[offset:offset + size]
                          for offset, size in ranges]
        assert type(run(cluster, reader.read(BLOB, CHUNK, CHUNK))) is bytes


def test_every_posix_client_read_returns_bytes():
    cluster = Cluster(config=QUICK, seed=1)
    deployment = PosixFsDeployment(cluster, num_osts=2,
                                   default_stripe_size=CHUNK)
    client = PosixClient(deployment, cluster.add_node("p0"))
    data = payload(5 * CHUNK, 7)

    def scenario():
        yield from client.create("/p", stripe_size=CHUNK)
        yield from client.write_vector("/p", IOVector.for_write(
            [(CHUNK // 2, data), (3000, memoryview(data)[:9])]), _locked=True)
        whole = yield from client.read("/p", 0, 4 * CHUNK)
        vector = IOVector.for_read([(CHUNK, CHUNK), (0, 5 * CHUNK),
                                    (3000, 9), (5000, 0)])
        unlocked = yield from client.read_vector("/p", vector)
        locked = yield from client.read_vector("/p", vector, _locked=True)
        return [whole, unlocked, locked]

    pieces = run(cluster, scenario())
    assert [type(piece) for piece in pieces] == [bytes] * 3
    image = bytes(CHUNK // 2) + data
    expected = image[CHUNK:2 * CHUNK] + image[:5 * CHUNK] + data[:9]
    assert pieces == [image[:4 * CHUNK], expected, expected]


@pytest.mark.parametrize("backend", ["versioning", "posix-locking"])
def test_every_file_read_returns_bytes(backend):
    environment = build_environment(backend, num_storage_nodes=3,
                                    stripe_unit=CHUNK, config=QUICK)
    data = [payload(3 * CHUNK, rank) for rank in range(2)]

    def rank_main(ctx):
        driver = environment.driver_factory(ctx)
        handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        yield from handle.write_at_all(ctx.rank * 3 * CHUNK, data[ctx.rank])
        yield from ctx.comm.barrier(ctx.rank)
        own = yield from handle.read_at(ctx.rank * 3 * CHUNK + 7, CHUNK)
        everything = yield from handle.read_at_all(0, 6 * CHUNK)
        yield from handle.close()
        return own, everything

    results = run_mpi_job(environment.cluster, 2, rank_main).results
    image = data[0] + data[1]
    for rank, (own, everything) in enumerate(results):
        assert type(own) is bytes and type(everything) is bytes
        start = rank * 3 * CHUNK + 7
        assert own == image[start:start + CHUNK]
        assert everything == image


# ----------------------------------------------------------------------
# an MPI-I/O read fills one buffer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_multi_request_read_is_one_buffer_on_every_driver(backend):
    """Two tiles of a three-block view, blocks across stripe edges: the
    driver's read of the flattened view, the independent read, atomic or
    not, and the collective one each return one ``bytes``, the requests'
    bytes back to back — what joining one ``bytes`` per request gave."""
    environment = build_environment(backend, num_storage_nodes=3,
                                    stripe_unit=CHUNK, config=QUICK)
    filetype = Indexed([300, 100, 500], [0, 1000, 1400], base=BYTE)
    data = payload(2 * filetype.size, 8)

    def rank_main(ctx):
        driver = environment.driver_factory(ctx)
        handle = yield from File.open(driver, "/f", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        handle.set_view(displacement=10, filetype=filetype)
        yield from handle.write_at(0, data)
        vector = build_read_vector(handle.view, 0, len(data))
        assert len(vector) > 1
        reads = [(yield from driver.read_vector("/f", vector, atomic=False)),
                 (yield from handle.read_at(0, len(data))),
                 (yield from handle.read_at_all(0, len(data)))]
        handle.set_atomicity(True)
        reads.append((yield from handle.read_at(0, len(data))))
        yield from handle.close()
        return reads

    reads, = run_mpi_job(environment.cluster, 1, rank_main).results
    assert [type(read) for read in reads] == [bytes] * 4
    assert reads == [data] * 4


def test_a_collective_read_holds_no_copy_beside_its_buffers():
    """16 ranks read back their interleaved 8 KiB blocks with
    ``read_at_all``: the two resolvers ship views of the stored chunks and
    each rank's one join is the only copy, so what the read allocates
    beyond the 4 MiB of buffers it returns stays under 1 MiB — a resolver's
    stripe joined, or the blocks cut out of it as copies, would be 2 MiB
    each."""
    ranks, blocks, block = 16, 32, 8192
    cluster = Cluster(config=QUICK, seed=1)
    deployment = BlobSeerDeployment(cluster, num_providers=4,
                                    num_metadata_providers=2,
                                    chunk_size=16 * 1024)
    filetype = Indexed([block] * blocks,
                       [index * ranks * block for index in range(blocks)],
                       base=BYTE)
    traced = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=2)
        handle = yield from File.open(driver, "/ckpt", rank=ctx.rank,
                                      comm=ctx.comm,
                                      size_hint=ranks * blocks * block)
        handle.set_view(ctx.rank * block, BYTE, filetype)
        data = payload(blocks * block, ctx.rank)
        yield from handle.write_at_all(0, data)
        yield from handle.sync()
        yield from ctx.comm.barrier(ctx.rank)
        if ctx.rank == 0:
            tracemalloc.start()  # traces what the read allocates
        read = yield from handle.read_at_all(0, len(data))
        yield from ctx.comm.barrier(ctx.rank)
        if ctx.rank == 0:
            traced["peak"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        yield from handle.close()
        return read == data, len(read)

    try:
        results = run_mpi_job(cluster, ranks, rank_main).results
    finally:
        tracemalloc.stop()
    assert all(equal for equal, _size in results)
    returned = sum(size for _equal, size in results)
    assert returned == ranks * blocks * block
    assert traced["peak"] - returned < 1024 * 1024
