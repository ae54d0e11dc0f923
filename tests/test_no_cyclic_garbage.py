"""A simulated job leaves no cyclic garbage behind.

Objects that only the cyclic garbage collector can free make every
collection pass longer and keep memory around until one runs.  The hot
paths are written so that nothing a run creates forms an unreachable
cycle: a canonical :class:`~repro.core.regions.RegionList` marks itself
canonical instead of pointing at itself, and a granted lock request drops
its grant callback (which closes over the grant event that holds the
request).  Each test runs one small job with the collector off, keeps the
job alive (cluster, deployment, drivers, results), and asks the collector
what became unreachable meanwhile.
"""

import gc
from collections import Counter

import pytest

from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster
from repro.mpi.datatypes import BYTE, Indexed, Vector
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.posix_locking import PosixLockingDriver
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.posixfs.deployment import PosixFsDeployment

PATH = "/no-cycles"
RANKS = 8
BLOCKS = 16
BLOCK = 1024
FILE_SIZE = RANKS * BLOCKS * BLOCK


def collective_job():
    """Interleaved blocks: ``write_at_all``, ``sync``, ``read_at_all`` with
    two-phase buffering on the versioning backend."""
    cluster = Cluster(seed=1)
    deployment = BlobSeerDeployment(cluster, num_providers=4,
                                    num_metadata_providers=2,
                                    chunk_size=4 * BLOCK)
    drivers = []

    def rank_main(ctx):
        driver = VersioningDriver(
            deployment, ctx.node, rank_name=f"rank{ctx.rank}",
            write_coalescing=True, collective_buffering=True,
            collective_aggregators=2)
        drivers.append(driver)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        handle.set_view(0, BYTE, Indexed(
            [BLOCK] * BLOCKS,
            [(block * RANKS + ctx.rank) * BLOCK for block in range(BLOCKS)]))
        payload = bytes([ctx.rank + 1]) * (BLOCKS * BLOCK)
        yield from handle.write_at_all(0, payload)
        yield from handle.sync()
        data = yield from handle.read_at_all(0, len(payload))
        yield from handle.close()
        return data == payload

    result = run_mpi_job(cluster, RANKS, rank_main)
    return cluster, deployment, drivers, result


def locking_job():
    """Overlapping strided views written atomically and independently on
    the POSIX-locking baseline, so that lock requests queue."""
    cluster = Cluster(seed=1)
    deployment = PosixFsDeployment(cluster, num_osts=4,
                                   default_stripe_size=4 * BLOCK,
                                   default_stripe_count=4)
    drivers = []

    def rank_main(ctx):
        driver = PosixLockingDriver(deployment, ctx.node,
                                    rank_name=f"rank{ctx.rank}")
        drivers.append(driver)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        handle.set_atomicity(True)
        # each rank's blocks overlap its neighbours' by half a block
        handle.set_view(ctx.rank * BLOCK // 2, BYTE,
                        Vector(BLOCKS // 2, BLOCK, 2 * BLOCK))
        payload = bytes([ctx.rank + 1]) * (BLOCKS // 2 * BLOCK)
        yield from handle.write_at(0, payload)
        yield from ctx.comm.barrier(ctx.rank)
        data = yield from handle.read_at(0, len(payload))
        yield from handle.close()
        return len(data) == len(payload)

    result = run_mpi_job(cluster, RANKS, rank_main)
    return cluster, deployment, drivers, result


@pytest.mark.parametrize("job", [collective_job, locking_job],
                         ids=["versioning-collective", "locking-atomic"])
def test_a_job_creates_no_cyclic_garbage(job):
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        alive = job()
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    result = alive[-1]
    assert all(result.results)
    assert unreachable == 0, f"cyclic garbage: {kinds.most_common(6)}"
