#!/usr/bin/env python3
"""Trace a collective MPI-I/O job and read the evidence three ways.

The observability subsystem (:mod:`repro.obs`) records everything on the
*simulation* clock, so nothing here perturbs the run and two executions
produce byte-identical artifacts.  This walkthrough:

1. runs an 8-rank ``write_at_all`` + ``read_at_all`` job under the queued
   network model with ``ClusterConfig(tracing=True)``;
2. walks the causal span tree — file operation → collective phase →
   commit → commit stage → per-shard RPC → network link;
3. collects the unified metrics registry and checks its partition
   identities;
4. dumps a Chrome trace-event JSON you can open at
   https://ui.perfetto.dev (or ``chrome://tracing``).

Run it with::

    python examples/trace_collective.py
"""

import tempfile
from pathlib import Path

from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.obs.export import (
    dump_chrome_trace,
    span_chains,
    validate_chrome_trace,
)
from repro.obs.views import collect_all

NUM_RANKS = 8
BLOCKS = 8
BLOCK_SIZE = 1024


def main() -> None:
    # ------------------------------------------------------------------
    # 1. a traced cluster: one flag turns the whole subsystem on
    # ------------------------------------------------------------------
    cluster = Cluster(config=ClusterConfig(network_model="queued",
                                           tracing=True))
    deployment = BlobSeerDeployment(cluster, num_providers=4,
                                    num_metadata_providers=2,
                                    chunk_size=16 * 1024, node_prefix="ex")
    stride = NUM_RANKS * BLOCK_SIZE
    file_size = BLOCKS * stride
    drivers = []
    comms = []

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"ex{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=2)
        drivers.append(driver)
        if ctx.rank == 0:
            comms.append(ctx.comm)
        handle = yield from File.open(driver, "/traced", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=file_size)
        displacements = [index * stride + ctx.rank * BLOCK_SIZE
                         for index in range(BLOCKS)]
        handle.set_view(0, BYTE, Indexed([BLOCK_SIZE] * BLOCKS,
                                         displacements, base=BYTE))
        payload = bytes([(ctx.rank + 1) % 251]) * (BLOCKS * BLOCK_SIZE)
        yield from handle.write_at_all(0, payload)
        yield from handle.sync()
        data = yield from handle.read_at_all(0, BLOCKS * BLOCK_SIZE)
        assert data == payload, "collective read returned wrong bytes"
        yield from handle.close()

    run_mpi_job(cluster, NUM_RANKS, rank_main, node_prefix="ex-rank")
    tracer = cluster.obs.tracer
    print(f"job done: {len(tracer.spans)} spans, "
          f"sim time {cluster.sim.now * 1e3:.3f} ms")

    # ------------------------------------------------------------------
    # 2. the causal tree: follow one write from the File layer to a link
    # ------------------------------------------------------------------
    deepest = max(span_chains(tracer).values(), key=len)
    print(f"\ndeepest causal chain ({len(deepest)} layers):")
    for depth, span in enumerate(deepest):
        lane = f"{span.lane[0]}:{span.lane[1]}"
        print(f"  {'  ' * depth}{span.name}  [{lane}]  "
              f"{(span.end - span.start) * 1e6:.1f} us")

    # ------------------------------------------------------------------
    # 3. the unified metrics registry, identities re-asserted
    # ------------------------------------------------------------------
    registry = collect_all(cluster.obs.registry, cluster=cluster,
                           deployment=deployment, drivers=drivers,
                           comms=comms, complete_clients=True)
    registry.assert_identities()
    snap = registry.snapshot()
    print("\nselected metrics:")
    for name in ("client.bytes_written", "metadata.cache.lookups",
                 "metadata.cache.hits", "collective.write.stripes_committed",
                 "mpi.bytes_moved", "net.bytes", "net.link.reservations"):
        print(f"  {name} = {snap[name]}")
    print("partition identities: all hold")

    # link telemetry from the queued model
    report = cluster.obs.link_telemetry.report()
    busiest = max(report, key=lambda name: report[name]["utilization"])
    print(f"busiest link: {busiest} "
          f"(utilization {report[busiest]['utilization']:.1%}, "
          f"max queue delay {report[busiest]['max_queue_delay_s'] * 1e6:.1f} us)")

    # ------------------------------------------------------------------
    # 4. export for Perfetto / chrome://tracing
    # ------------------------------------------------------------------
    out = Path(tempfile.mkdtemp()) / "trace_collective.json"
    trace = dump_chrome_trace(tracer, out,
                              telemetry=cluster.obs.link_telemetry)
    problems = validate_chrome_trace(trace)
    assert problems == [], problems
    print(f"\nwrote {out} ({out.stat().st_size} bytes, schema-valid)")
    print("open it at https://ui.perfetto.dev -> 'Open trace file'")


if __name__ == "__main__":
    main()
