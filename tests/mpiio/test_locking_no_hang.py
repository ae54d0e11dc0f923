"""The locking drivers terminate: no schedule of atomic writes deadlocks.

A client that locks range by range can deadlock on a *single* lock server
even in (OST, offset) order: it holds its first range, a wider request queues
behind that, and the no-barging rule then queues the client's own second
range behind the waiter it is blocking.  One all-or-nothing request per
server has no hold-and-wait inside a server; ascending OST order covers the
rest.  The first test is that two-client script, the others seeded sweeps
over every locking driver.
"""

import random

import pytest

from repro.bench.environment import build_environment
from repro.cluster import ClusterConfig
from repro.core.atomicity import VectoredWrite, check_mpi_atomicity
from repro.core.listio import IOVector
from repro.mpi.launcher import run_mpi_job

PATH = "/shared"
KIB = 1024
FILE_SIZE = 64 * KIB
LOCKING_BACKENDS = ["posix-locking", "posix-listlock", "conflict-detect"]


def run_script(backend, script, collective, **environment):
    """Run ``script`` (rank -> (think seconds, write pairs)) in atomic mode
    and return ``(final file, the writes)``; a hang surfaces as the
    simulator's ``SimulationError``."""
    env = build_environment(backend, **environment)

    def rank_main(ctx):
        driver = env.driver_factory(ctx)
        yield from driver.open(PATH, FILE_SIZE, create=True, rank=ctx.rank,
                               comm=ctx.comm)
        think, pairs = script[ctx.rank]
        yield ctx.sim.timeout(think)
        write = driver.write_vector_all if collective else driver.write_vector
        yield from write(PATH, IOVector.for_write(pairs), True,
                         rank=ctx.rank, comm=ctx.comm)
        yield from ctx.comm.barrier(ctx.rank)
        if ctx.rank == 0:
            data = yield from driver.read_vector(
                PATH, IOVector.for_read([(0, FILE_SIZE)]), atomic=True)
            return data

    result = run_mpi_job(env.cluster, len(script), rank_main)
    writes = [VectoredWrite(rank, IOVector.for_write(pairs))
              for rank, (_think, pairs) in enumerate(script)]
    return result.results[0], writes


@pytest.mark.parametrize("lag_ms", [0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5])
def test_listlock_wide_writer_behind_a_two_range_writer_terminates(lag_ms):
    """A writes ``[0, 64 KiB)`` just after B starts on two 2 KiB ranges
    inside it, all on one OST.  Range-by-range locking hung whenever A's
    request landed between B's two (here: lags of 0.25 to 0.4 ms)."""
    script = [
        (lag_ms * 1e-3, [(0, b"A" * 64 * KIB)]),
        (0.0, [(10 * KIB, b"B" * 2 * KIB), (20 * KIB, b"B" * 2 * KIB)]),
    ]
    observed, writes = run_script("posix-listlock", script, collective=False)
    assert check_mpi_atomicity(b"\x00" * FILE_SIZE, writes, observed)


def random_script(rng, fewest=3, most=6):
    """``fewest``-``most`` clients, one write each: 2-5 pieces placed on a
    2 KiB grid, so the pieces of one write never overlap each other but
    collide with other clients' all the time — or, now and then, one wide
    contiguous write across the lot."""
    clients = rng.randint(fewest, most)
    script = []
    for fill in rng.sample(range(1, 256), clients):
        fill = bytes([fill])
        if rng.random() < 0.2:
            pairs = [(rng.randrange(0, 8 * KIB),
                      fill * rng.randrange(16 * KIB, 48 * KIB))]
        else:
            pairs = []
            for slot in rng.sample(range(32), rng.randint(2, 5)):
                start = rng.randrange(0, KIB)
                pairs.append((slot * 2 * KIB + start,
                              fill * rng.randrange(256, 2 * KIB - start)))
        script.append((rng.uniform(0.0, 3e-4), pairs))
    return script


def assert_scripts_serialize(backend, rng, scripts, **clients):
    """Run ``scripts`` random scripts on ``backend``; each file must be
    atomic."""
    for index in range(scripts):
        script = random_script(rng, **clients)
        # a collective write lets conflict-detect run its exchange and skip
        # locks where it can; the others treat it as independent writes
        observed, writes = run_script(
            backend, script, collective=True, num_storage_nodes=3,
            stripe_unit=4 * KIB,
            config=ClusterConfig(network_latency=1e-5, disk_overhead=1e-4),
            seed=index)
        assert check_mpi_atomicity(b"\x00" * FILE_SIZE, writes, observed), \
            f"{backend}, script {index}"


@pytest.mark.parametrize("backend", LOCKING_BACKENDS)
def test_random_overlapping_atomic_writes_terminate_and_serialize(backend):
    assert_scripts_serialize(backend, random.Random(f"no-hang:{backend}"), 40)


@pytest.mark.parametrize("backend", LOCKING_BACKENDS)
def test_crowded_atomic_writes_serialize(backend):
    """12-24 clients a script: most of them fall into one conflict group,
    which the checker decides as readily as a group of three."""
    assert_scripts_serialize(backend, random.Random(f"crowded:{backend}"), 10,
                             fewest=12, most=24)
