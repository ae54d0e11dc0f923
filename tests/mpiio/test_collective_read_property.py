"""Property tests of aggregated collective reads (seeded-random exploration).

Three layers:

* *vector layer* — raw read ``IOVector``\\ s (overlaps both within a rank's
  vector and across ranks) handed straight to the driver's collective entry
  point; the oracle extracts the same ranges from the known file contents.

* *datatype layer* — random rank counts, resolver counts and per-rank MPI
  datatypes (``Vector`` strides, ``Indexed`` block sets, plain contiguous
  spans) drive ``read_at_all`` through real file views; the oracle flattens
  each rank's view with the same :func:`~repro.mpiio.flatten.
  build_read_vector` the File layer uses.

* *version-pin layer* — collective reads racing a concurrent writer that
  keeps publishing new snapshots.  The invariant: every rank of one
  collective read observes the same single published snapshot (no mixed
  versions across ranks, no torn reads within a rank), and the pins are
  monotone across rounds (a later collective read never travels back in
  time).

Reads never touch the version-manager ticket machinery, which the suites
assert as well.
"""

import random

import pytest

from repro.core.listio import IOVector
from repro.mpi.datatypes import BYTE, Contiguous, Indexed, Vector
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.mpiio.flatten import FileView, build_read_vector
from repro.vstore.client import VectoredClient
from tests.mpiio._collective_testlib import make_quick_deployment

FILE_SIZE = 8 * 1024
CHUNK = 512
PATH = "/read-property"


def make_deployment(seed=1):
    return make_quick_deployment(seed=seed, chunk_size=CHUNK)


def seed_content(cluster, deployment, seed):
    """Publish random contents; returns the in-memory reference bytes."""
    rng = random.Random(seed)
    client = VectoredClient(deployment, cluster.add_node("seeder"),
                            name="seeder")
    content = bytearray(FILE_SIZE)
    writes = []
    for index in range(rng.randint(2, 5)):
        size = rng.randint(100, 1200)
        offset = rng.randrange(0, FILE_SIZE - size)
        payload = bytes([1 + (index * 37 + seed) % 255]) * size
        writes.append((offset, payload))
        content[offset:offset + size] = payload

    def scenario():
        yield from client.create_blob(PATH, FILE_SIZE, chunk_size=CHUNK)
        for offset, payload in writes:
            yield from client.vwrite_and_wait(PATH, [(offset, payload)])

    process = cluster.sim.process(scenario())
    cluster.sim.run(stop_event=process)
    return bytes(content)


def make_driver(deployment, ctx, num_resolvers):
    return VersioningDriver(deployment, ctx.node,
                            rank_name=f"rank{ctx.rank}",
                            write_coalescing=True,
                            collective_buffering=True,
                            collective_aggregators=num_resolvers)


# ----------------------------------------------------------------------
# vector layer (overlaps within and across ranks)
# ----------------------------------------------------------------------
def random_read_vectors(rng, num_ranks):
    """One read vector per rank; ranges overlap freely, even within a rank."""
    vectors = []
    for _rank in range(num_ranks):
        requests = []
        for _index in range(rng.randint(1, 4)):
            size = rng.randint(1, 700)
            offset = rng.randrange(0, FILE_SIZE - size)
            requests.append((offset, size))
        vectors.append(IOVector.for_read(requests))
    return vectors


@pytest.mark.parametrize("seed", range(8))
def test_random_overlapping_read_vectors_match_the_content_oracle(seed):
    rng = random.Random(3000 + seed)
    num_ranks = rng.randint(2, 5)
    num_resolvers = rng.randint(1, num_ranks)
    vectors = random_read_vectors(rng, num_ranks)

    cluster, deployment = make_deployment(seed)
    content = seed_content(cluster, deployment, seed)
    expected = [b"".join(vector.extract_from(content)) for vector in vectors]

    def rank_main(ctx):
        driver = make_driver(deployment, ctx, num_resolvers)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        # below the File layer: hand the raw overlapping vector to the
        # driver's collective entry point
        data = yield from driver.read_vector_all(
            PATH, vectors[ctx.rank], atomic=False, rank=ctx.rank,
            comm=ctx.comm)
        yield from handle.close()
        return data

    result = run_mpi_job(cluster, num_ranks, rank_main)
    assert result.results == expected, (
        f"seed {seed}: {num_ranks} ranks / {num_resolvers} resolvers")
    # reads never touch the ticket machinery
    manager = deployment.version_manager.manager
    assert manager.pending_versions(PATH) == []
    assert manager.tickets_aborted == 0


# ----------------------------------------------------------------------
# datatype layer
# ----------------------------------------------------------------------
def random_view_and_size(rng):
    """A random file view plus a read size filling its accessible bytes."""
    kind = rng.choice(["vector", "indexed", "contiguous"])
    displacement = rng.randrange(0, FILE_SIZE // 4)
    if kind == "vector":
        count = rng.randint(1, 5)
        blocklength = rng.randint(1, 96)
        stride = blocklength + rng.randint(0, 128)
        filetype = Vector(count, blocklength, stride, base=BYTE)
    elif kind == "indexed":
        count = rng.randint(1, 4)
        starts = sorted(rng.sample(range(0, 1024), count))
        lengths = []
        for index, start in enumerate(starts):
            limit = starts[index + 1] - start if index + 1 < count else 200
            lengths.append(rng.randint(1, max(1, min(200, limit))))
        filetype = Indexed(lengths, starts, base=BYTE)
    else:
        filetype = Contiguous(rng.randint(1, 256), base=BYTE)
    view = FileView(displacement=displacement, etype=BYTE, filetype=filetype)
    size = filetype.size * rng.randint(1, 3)
    return view, size


@pytest.mark.parametrize("seed", range(8))
def test_random_datatype_collective_reads_match_the_flattened_oracle(seed):
    rng = random.Random(4000 + seed)
    num_ranks = rng.randint(2, 6)
    num_resolvers = rng.randint(1, num_ranks)

    views = []
    for _rank in range(num_ranks):
        while True:
            view, size = random_view_and_size(rng)
            vector = build_read_vector(view, 0, size)
            if sum(vector.covering_extent()) <= FILE_SIZE:
                break
        views.append((view, size, vector))

    cluster, deployment = make_deployment(seed)
    content = seed_content(cluster, deployment, seed + 100)
    expected = [b"".join(vector.extract_from(content))
                for _view, _size, vector in views]

    def rank_main(ctx):
        driver = make_driver(deployment, ctx, num_resolvers)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        view, size, _vector = views[ctx.rank]
        handle.view = view
        data = yield from handle.read_at_all(0, size)
        yield from handle.close()
        return data

    result = run_mpi_job(cluster, num_ranks, rank_main)
    assert result.results == expected, (
        f"seed {seed}: {num_ranks} ranks / {num_resolvers} resolvers")


# ----------------------------------------------------------------------
# version-pin layer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_all_ranks_of_one_collective_read_observe_one_snapshot(seed):
    """Collective reads racing a publishing writer: each round's results are
    identical across ranks, equal to exactly one published version's
    contents, and the pinned versions never move backwards."""
    rng = random.Random(5000 + seed)
    num_ranks = rng.randint(2, 4)
    num_resolvers = rng.randint(1, num_ranks)
    rounds = 4
    num_versions = 6

    cluster, deployment = make_deployment(seed)
    writer = VectoredClient(deployment, cluster.add_node("writer"),
                            name="writer")

    # contents at every version, known ahead of time
    states = [bytes(FILE_SIZE)]
    writes = []
    content = bytearray(FILE_SIZE)
    for version in range(1, num_versions + 1):
        size = rng.randint(200, 900)
        offset = rng.randrange(0, FILE_SIZE - size)
        payload = bytes([version * 17 % 255 or 1]) * size
        writes.append((offset, payload))
        content[offset:offset + size] = payload
        states.append(bytes(content))

    def create():
        yield from writer.create_blob(PATH, FILE_SIZE, chunk_size=CHUNK)

    process = cluster.sim.process(create())
    cluster.sim.run(stop_event=process)

    def publisher():
        for offset, payload in writes:
            yield cluster.sim.timeout(0.003)
            yield from writer.vwrite_and_wait(PATH, [(offset, payload)])

    def rank_main(ctx):
        driver = make_driver(deployment, ctx, num_resolvers)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        if ctx.rank == 0:
            ctx.sim.process(publisher(), name="publisher")
        observed = []
        for _round in range(rounds):
            yield ctx.sim.timeout(0.002)
            # sync drops the one-shot hint so every round re-pins at the
            # writer's current watermark instead of round 1's
            yield from handle.sync()
            data = yield from handle.read_at_all(0, FILE_SIZE)
            observed.append(data)
        yield from handle.close()
        return observed

    result = run_mpi_job(cluster, num_ranks, rank_main)
    previous_version = 0
    for round_index in range(rounds):
        round_results = [observed[round_index]
                         for observed in result.results]
        # one snapshot for the whole group
        assert all(data == round_results[0] for data in round_results), (
            f"seed {seed} round {round_index}: ranks observed mixed versions")
        # ... and it is a *published* snapshot, not a torn mix
        assert round_results[0] in states, (
            f"seed {seed} round {round_index}: snapshot matches no version")
        version = states.index(round_results[0])
        assert version >= previous_version, (
            f"seed {seed} round {round_index}: pinned version went backwards")
        previous_version = version
