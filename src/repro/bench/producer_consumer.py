"""FUT1 — the paper's future-work scenario: producer/consumer pipelines.

The conclusion of the paper argues that exposing the versioning interface at
application level helps producer–consumer workloads, "where for example the
output of simulations is concurrently used as the input of visualizations",
by avoiding the expensive synchronization current approaches need.

This experiment makes that argument measurable:

* *producers* (simulation ranks) repeatedly dump their overlapping
  subdomains into the shared dataset in MPI atomic mode;
* *consumers* (visualization ranks) concurrently read the whole dataset.

On the versioning backend consumers read the latest *published snapshot* and
never interact with in-flight writes.  On the locking backend consumers must
take shared covering-extent locks, so they stall producers (and vice versa).
The row reports both the producer and the consumer throughput; it is the
``FUT1:<backend>`` point of the ``ablations`` suite.
"""

from __future__ import annotations

import math
from typing import List

from repro.bench.environment import build_environment
from repro.bench.metrics import MiB
from repro.errors import BenchmarkError
from repro.mpi.datatypes import Indexed
from repro.mpi.launcher import MPIContext, run_mpi_job
from repro.mpiio.file import AccessMode, File
from repro.workloads.overlap_stress import OverlapStressWorkload


def run_fut1_point(settings, config, *, backend: str):
    """Concurrent simulation dumps + visualization reads on one backend:
    ``settings.num_producers`` EXP1-shaped writers against
    ``settings.num_consumers`` whole-file readers for
    ``settings.iterations`` rounds; returns the FUT1 row (no extras)."""
    num_producers = settings.num_producers
    num_consumers = settings.num_consumers
    iterations = settings.iterations
    if num_producers <= 0 or num_consumers <= 0 or iterations <= 0:
        raise BenchmarkError("producers, consumers and iterations must be positive")

    workload = OverlapStressWorkload(
        num_clients=num_producers,
        regions_per_client=settings.regions_per_client,
        region_size=settings.region_size,
        overlap_fraction=settings.overlap_fraction,
    )
    file_size = workload.file_size
    environment = build_environment(
        backend,
        num_storage_nodes=settings.num_storage_nodes,
        stripe_unit=settings.stripe_unit,
        num_metadata_providers=settings.num_metadata_providers,
        config=config,
    )
    produce_spans: List[float] = []
    consume_latencies: List[float] = []

    def rank_main(ctx: MPIContext):
        driver = environment.driver_factory(ctx)
        handle = yield from File.open(
            driver, "/dataset", AccessMode.default_write(), rank=ctx.rank,
            comm=ctx.comm, size_hint=file_size)
        handle.set_atomicity(True)
        is_producer = ctx.rank < num_producers
        if is_producer:
            pairs = workload.client_pairs(ctx.rank)
            handle.set_view(filetype=Indexed.of_extents(
                (offset, len(data)) for offset, data in pairs))
            payload = b"".join(data for _, data in pairs)

        # a priming iteration fills the dataset so consumers always read
        # real data, then the measured iterations run producers and
        # consumers concurrently
        if is_producer:
            yield from handle.write_at(0, payload)
        yield from ctx.comm.barrier(ctx.rank)

        started = ctx.sim.now
        for _iteration in range(iterations):
            yield from ctx.comm.barrier(ctx.rank)
            if is_producer:
                yield from handle.write_at(0, payload)
            else:
                read_start = ctx.sim.now
                yield from handle.read_at(0, file_size)
                consume_latencies.append(ctx.sim.now - read_start)
        if is_producer:
            produce_spans.append(ctx.sim.now - started)

        yield from ctx.comm.barrier(ctx.rank)
        yield from handle.close()

    run_mpi_job(environment.cluster, num_producers + num_consumers, rank_main,
                node_prefix=f"fut1-{backend}-rank")

    produced = workload.bytes_per_client * iterations * num_producers
    producer_elapsed = max(produce_spans)
    mean_read_latency = math.fsum(consume_latencies) / len(consume_latencies)
    return {
        "experiment": "FUT1",
        "backend": backend,
        "producers": num_producers,
        "consumers": num_consumers,
        "iterations": iterations,
        "producer_mib_s": produced / producer_elapsed / MiB,
        "producer_elapsed_s": producer_elapsed,
        "consumer_read_latency_s": mean_read_latency,
        "consumer_mib_s": file_size / mean_read_latency / MiB,
    }, {}
