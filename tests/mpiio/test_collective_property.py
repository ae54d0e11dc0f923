"""Property tests of collective buffering (seeded-random exploration).

Two layers, both comparing against the rank-order serial oracle:

* *datatype layer* — random rank counts, aggregator counts and per-rank MPI
  datatypes (``Vector`` strides, ``Indexed`` block sets, plain contiguous
  spans) drive ``write_at_all`` through real file views; the oracle flattens
  each rank's view with the same :func:`~repro.mpiio.flatten.
  build_write_vector` the File layer uses and applies the vectors serially
  in rank order.

* *vector layer* — raw overlapping ``IOVector``\\ s (overlaps both within a
  rank's vector and across ranks) handed straight to the driver's collective
  entry point, pinning the (source rank, request sequence) overlap
  resolution the aggregator promises.

Both layers also assert the publication invariant: every assigned ticket
publishes, in ticket order, with nothing pending afterwards.
"""

import random

import pytest

from repro.core.listio import IOVector
from repro.mpi.datatypes import BYTE, Contiguous, Indexed, Vector
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.mpiio.flatten import FileView, build_write_vector
from tests._oracle import serial_oracle_vectors
from tests.mpiio._collective_testlib import make_quick_deployment, read_back_latest

FILE_SIZE = 8 * 1024
CHUNK = 512
PATH = "/property"


def make_deployment(seed=1):
    return make_quick_deployment(seed=seed, chunk_size=CHUNK)


def read_back(cluster, deployment):
    return read_back_latest(cluster, deployment, PATH, FILE_SIZE)


def assert_publication_clean(deployment):
    manager = deployment.version_manager.manager
    assert manager.pending_versions(PATH) == []
    assert manager.latest_published(PATH) == manager.tickets_assigned
    assert manager.tickets_aborted == 0


# ----------------------------------------------------------------------
# datatype layer
# ----------------------------------------------------------------------
def random_view_and_payload(rng, rank):
    """A random file view plus a payload filling its accessible bytes."""
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
    fill = bytes([1 + (rank * 53) % 255])
    return view, fill * size


@pytest.mark.parametrize("seed", range(8))
def test_random_datatype_collectives_match_rank_order_serial(seed):
    rng = random.Random(1000 + seed)
    num_ranks = rng.randint(2, 6)
    num_aggregators = rng.randint(1, num_ranks)

    views = []
    for rank in range(num_ranks):
        while True:
            view, payload = random_view_and_payload(rng, rank)
            vector = build_write_vector(view, 0, payload)
            if sum(vector.covering_extent()) <= FILE_SIZE:
                break
        views.append((view, payload, vector))

    # the oracle: each rank's flattened vector applied in rank order
    expected = serial_oracle_vectors(
        [vector for _view, _payload, vector in views], FILE_SIZE)

    cluster, deployment = make_deployment(seed)

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=num_aggregators)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        view, payload, _vector = views[ctx.rank]
        handle.view = view
        yield from handle.write_at_all(0, payload)
        yield from handle.close()

    run_mpi_job(cluster, num_ranks, rank_main)
    assert read_back(cluster, deployment) == expected, (
        f"seed {seed}: {num_ranks} ranks / {num_aggregators} aggregators")
    assert_publication_clean(deployment)


# ----------------------------------------------------------------------
# vector layer (overlaps within and across ranks)
# ----------------------------------------------------------------------
def random_overlapping_vectors(rng, num_ranks):
    """One write vector per rank; requests overlap freely, even within a rank."""
    vectors = []
    for rank in range(num_ranks):
        requests = []
        for index in range(rng.randint(1, 4)):
            size = rng.randint(1, 700)
            offset = rng.randrange(0, FILE_SIZE - size)
            fill = bytes([1 + (rank * 29 + index * 7) % 255])
            requests.append((offset, fill * size))
        vectors.append(IOVector.for_write(requests))
    return vectors


@pytest.mark.parametrize("seed", range(8))
def test_overlapping_vectors_resolve_in_rank_then_request_order(seed):
    rng = random.Random(2000 + seed)
    num_ranks = rng.randint(2, 5)
    num_aggregators = rng.randint(1, num_ranks)
    vectors = random_overlapping_vectors(rng, num_ranks)

    # IOVector semantics: later requests win, vectors in rank order
    expected = serial_oracle_vectors(vectors, FILE_SIZE)

    cluster, deployment = make_deployment(seed)

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=num_aggregators)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        # below the File layer: hand the raw overlapping vector to the
        # driver's collective entry point
        yield from driver.write_vector_all(PATH, vectors[ctx.rank],
                                           atomic=False, rank=ctx.rank,
                                           comm=ctx.comm)
        yield from handle.close()

    run_mpi_job(cluster, num_ranks, rank_main)
    assert read_back(cluster, deployment) == expected, (
        f"seed {seed}: {num_ranks} ranks / {num_aggregators} aggregators")
    assert_publication_clean(deployment)


@pytest.mark.parametrize("rounds", [3])
def test_repeated_collectives_accumulate_like_serial_rounds(rounds):
    """Later collective rounds overwrite earlier ones exactly as serial
    round-by-round application would."""
    rng = random.Random(42)
    num_ranks = 4
    per_round = [random_overlapping_vectors(rng, num_ranks)
                 for _round in range(rounds)]

    expected = serial_oracle_vectors(
        [vector for vectors in per_round for vector in vectors], FILE_SIZE)

    cluster, deployment = make_deployment(5)

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=2)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        for vectors in per_round:
            yield from driver.write_vector_all(PATH, vectors[ctx.rank],
                                               atomic=False, rank=ctx.rank,
                                               comm=ctx.comm)
            yield from ctx.comm.barrier(ctx.rank)
        yield from handle.close()

    run_mpi_job(cluster, num_ranks, rank_main)
    assert read_back(cluster, deployment) == expected
    assert_publication_clean(deployment)
