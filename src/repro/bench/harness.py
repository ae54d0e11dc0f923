"""Run one MPI-I/O job against one backend and measure aggregated throughput.

A job follows the structure of both of the paper's experiments:

1. every rank opens the shared file collectively and enables atomic mode;
2. a barrier aligns all ranks (the measurement starts here);
3. every rank writes its own (non-contiguous, possibly overlapping) access in
   a single MPI-I/O call;
4. a final barrier ends the measurement.

Aggregated throughput = (application bytes written by all ranks) / (time
between the two barriers), the metric the paper plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench.environment import ExperimentEnvironment
from repro.bench.metrics import ThroughputSample
from repro.blobseer.client import BlobClient
from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster
from repro.core.atomicity import VectoredWrite, check_mpi_atomicity
from repro.core.listio import IOVector
from repro.errors import BenchmarkError
from repro.mpi.datatypes import Indexed
from repro.mpi.launcher import MPIContext, run_mpi_job
from repro.mpiio.file import AccessMode, File

#: a per-rank workload: rank index -> list of (file offset, payload) pairs
PairsForRank = Callable[[int], Sequence[Tuple[int, bytes]]]


def deploy(settings, config, prefix: str):
    """A fresh cluster and the BlobSeer deployment one perf-suite point
    runs on; ``prefix`` names the nodes (custody hashes and RNG streams are
    keyed by node name, so every suite keeps its own)."""
    cluster = Cluster(config=config)
    deployment = BlobSeerDeployment(
        cluster,
        num_providers=settings.num_providers,
        num_metadata_providers=settings.num_metadata_providers,
        chunk_size=settings.chunk_size,
        node_prefix=prefix,
    )
    return cluster, deployment


def seed_blob(cluster, deployment, settings, name: str, path: str,
              file_size: int, pairs, **client_options) -> int:
    """Publish the dump a read suite scans, ahead of its clients, from a
    client on a node of its own; returns the published version."""
    seeder = BlobClient(deployment, cluster.add_node(name), name=name,
                        **client_options)

    def seed():
        yield from seeder.create_blob(path, file_size,
                                      chunk_size=settings.chunk_size)
        receipt = yield from seeder.vwrite_and_wait(path, pairs)
        return receipt.version

    return cluster.sim.run(
        stop_event=cluster.sim.process(seed(), name=name))


def drive_processes(cluster, processes, name: str = "bench-driver") -> None:
    """Run the simulation until every process in ``processes`` finished.

    The shared scaffolding of the client-level perf suites: spawn one
    process per simulated client, wrap them in a driver that joins them,
    run to the driver.
    """
    def driver():
        yield cluster.sim.all_of(processes)
    process = cluster.sim.process(driver(), name=name)
    cluster.sim.run(stop_event=process)


def start_clients(settings, config, prefix: str, file_size: int,
                  **client_options):
    """The setup the write-then-read suites share: a fresh deployment, one
    client per node of its own, and the BLOB created.

    Returns ``(cluster, clients, blob_id, drive)`` where ``drive(phase,
    body)`` runs ``body(rank)`` on every rank concurrently to completion.
    """
    cluster, deployment = deploy(settings, config, prefix)
    ranks = range(settings.num_clients)
    clients = [BlobClient(deployment,
                          cluster.add_node(f"{prefix}-client{rank}"),
                          name=f"{prefix}{rank}", **client_options)
               for rank in ranks]
    blob_id = f"{prefix}-blob"
    setup = cluster.sim.process(clients[0].create_blob(blob_id, file_size),
                                name=f"{prefix}-setup")
    cluster.sim.run(stop_event=setup)

    def drive(phase: str, body) -> None:
        drive_processes(
            cluster,
            [cluster.sim.process(body(rank), name=f"{prefix}-{phase}{rank}")
             for rank in ranks],
            name=f"{prefix}-driver")

    return cluster, clients, blob_id, drive


def cache_totals(clients) -> Tuple[int, int]:
    """Aggregate (hits, misses) over the clients' metadata node caches."""
    hits = misses = 0
    for client in clients:
        if client.metadata_cache is not None:
            hits += client.metadata_cache.stats.hits
            misses += client.metadata_cache.stats.misses
    return hits, misses


@dataclass
class RunResult:
    """Outcome of one measured MPI-I/O write job."""

    backend: str
    num_clients: int
    total_bytes: int
    write_elapsed: float
    job_elapsed: float
    per_rank_elapsed: List[float]
    lock_wait_time: float
    storage_stats: Dict[str, object]
    cluster_stats: Dict[str, object]
    path: str
    file_size: int
    environment: ExperimentEnvironment = field(repr=False, default=None)

    @property
    def sample(self) -> ThroughputSample:
        """The throughput point this run contributes to its experiment."""
        return ThroughputSample(backend=self.backend, num_clients=self.num_clients,
                                total_bytes=self.total_bytes,
                                elapsed=self.write_elapsed)

    @property
    def throughput_mib(self) -> float:
        """Aggregated throughput in MiB/s."""
        return self.sample.throughput_mib


def run_atomic_write_job(environment: ExperimentEnvironment,
                         num_clients: int,
                         pairs_for_rank: PairsForRank,
                         file_size: int,
                         path: str = "/shared/output",
                         ) -> RunResult:
    """Execute the write phase of one experiment and measure it: every rank
    writes its access in atomic mode with one ``write_at_all``."""
    if num_clients <= 0:
        raise BenchmarkError("num_clients must be positive")
    cluster = environment.cluster
    write_spans: Dict[int, Tuple[float, float]] = {}
    drivers: List = [None] * num_clients

    def rank_main(ctx: MPIContext):
        driver = environment.driver_factory(ctx)
        drivers[ctx.rank] = driver
        handle = yield from File.open(
            driver, path, AccessMode.default_write(), rank=ctx.rank,
            comm=ctx.comm, size_hint=file_size)
        handle.set_atomicity(True)

        pairs = sorted(pairs_for_rank(ctx.rank), key=lambda pair: pair[0])
        handle.set_view(filetype=Indexed.of_extents(
            (offset, len(data)) for offset, data in pairs))
        payload = b"".join(data for _offset, data in pairs)

        yield from ctx.comm.barrier(ctx.rank)
        started = ctx.sim.now
        written = yield from handle.write_at_all(0, payload)
        finished = ctx.sim.now
        write_spans[ctx.rank] = (started, finished)
        yield from ctx.comm.barrier(ctx.rank)
        yield from handle.close()
        return written

    # a unique prefix lets the same environment host several successive jobs
    job = run_mpi_job(cluster, num_clients, rank_main,
                      node_prefix=f"bench{len(cluster.nodes)}-rank")

    starts = [span[0] for span in write_spans.values()]
    ends = [span[1] for span in write_spans.values()]
    write_elapsed = max(ends) - min(starts) if starts else 0.0
    total_bytes = sum(job.results)

    lock_wait = math.fsum(getattr(driver, "lock_wait_time", 0.0)
                          for driver in drivers)

    return RunResult(
        backend=environment.backend,
        num_clients=num_clients,
        total_bytes=total_bytes,
        write_elapsed=write_elapsed,
        job_elapsed=job.elapsed,
        per_rank_elapsed=[write_spans[rank][1] - write_spans[rank][0]
                          for rank in sorted(write_spans)],
        lock_wait_time=lock_wait,
        storage_stats=environment.storage_stats(),
        cluster_stats=cluster.stats(),
        path=path,
        file_size=file_size,
        environment=environment,
    )


def read_back_file(environment: ExperimentEnvironment, path: str,
                   file_size: int) -> bytes:
    """Read the whole shared file with a fresh single-rank job (for checks)."""
    content: List[bytes] = []

    def rank_main(ctx: MPIContext):
        driver = environment.driver_factory(ctx)
        handle = yield from File.open(
            driver, path, AccessMode.RDWR | AccessMode.CREATE, rank=ctx.rank,
            comm=ctx.comm, size_hint=file_size)
        data = yield from handle.read_at(0, file_size)
        content.append(data)
        yield from handle.close()

    run_mpi_job(environment.cluster, 1, rank_main,
                node_prefix=f"verify{len(environment.cluster.nodes)}-rank")
    return content[0]


def verify_job_atomicity(environment: ExperimentEnvironment,
                         num_clients: int,
                         pairs_for_rank: PairsForRank,
                         result: RunResult) -> bool:
    """Check that the file left behind by a run satisfies MPI atomicity.

    Exact at any rank count (:mod:`repro.core.atomicity` decides without
    search, however many ranks overlap one another).
    """
    observed = read_back_file(environment, result.path, result.file_size)
    writes = [VectoredWrite(rank, IOVector.for_write(list(pairs_for_rank(rank))))
              for rank in range(num_clients)]
    return check_mpi_atomicity(b"\x00" * result.file_size, writes, observed)
