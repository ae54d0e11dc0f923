#!/usr/bin/env python3
"""Profile a collective MPI-I/O job's simulated critical path.

Tracing (:mod:`repro.obs`) records every span on the *simulation* clock,
so the critical-path profiler can answer, deterministically, where an
operation's simulated time went: every instant of a traced operation's
end-to-end window is attributed to exactly one of six layers
(client compute, deferred-complete overlap, RPC queueing, link transfer,
shard service, coalesce park), and the layers sum back to the window with
exact float equality.  This walkthrough:

1. runs an 8-rank collective write/read job with tracing and latency
   digests on, under the queued network model;
2. extracts one ``file.write_at_all``'s critical path segment by segment;
3. prints the aggregated per-operation layer breakdown
   (:func:`repro.obs.critpath.operation_report`) — the same report the
   traced simcore bench row embeds and ``python -m repro.bench trace``
   writes beside its trace as ``<out stem>.critpath.json``;
4. shows the RPC latency digest the same run collected.

Run it with::

    python examples/critpath_report.py
"""

from repro.cluster.config import ClusterConfig
from repro.obs.critpath import (
    LAYERS,
    SpanDag,
    critical_path,
    layer_breakdown,
    operation_report,
)
from repro.obs.digest import digest_columns


def main() -> None:
    # ------------------------------------------------------------------
    # 1. a traced, digest-tapped collective job (the simcore workload)
    # ------------------------------------------------------------------
    from repro.bench.simcore import run_collective_io_point

    config = ClusterConfig(network_model="queued", tracing=True,
                           latency_digests=True)
    row = run_collective_io_point(
        num_ranks=8, blocks_per_rank=4, block_size=4096, read_rounds=1,
        num_aggregators=2, config=config, num_providers=4, seed=0)
    print(f"bench row: sim time {row['sim_elapsed_s'] * 1e3:.3f} ms, "
          f"{row['processed_events']} events, critpath embedded for "
          f"{len(row['critpath']['operations'])} operation kinds")

    # ------------------------------------------------------------------
    # 2. one operation's path, segment by segment — a tiny traced job
    #    whose spans we walk directly
    # ------------------------------------------------------------------
    from repro.blobseer.deployment import BlobSeerDeployment
    from repro.cluster.cluster import Cluster
    from repro.mpi.launcher import run_mpi_job
    from repro.mpiio.adio.versioning import VersioningDriver
    from repro.mpiio.file import File

    cluster = Cluster(config=config)
    deployment = BlobSeerDeployment(cluster, num_providers=2,
                                    num_metadata_providers=1,
                                    chunk_size=16 * 1024, node_prefix="cp")

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"cp{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=2)
        handle = yield from File.open(driver, "/profiled", rank=ctx.rank,
                                      comm=ctx.comm, size_hint=16 * 4096)
        payload = bytes([ctx.rank + 1]) * 4096
        yield from handle.write_at_all(ctx.rank * 4096, payload)
        yield from handle.sync()
        yield from handle.close()

    run_mpi_job(cluster, 4, rank_main, node_prefix="cp-rank")
    dag = SpanDag.from_tracer(cluster.obs.tracer)
    root = dag.roots(["file.write_at_all"])[0]
    segments = critical_path(dag, root)
    window = root.end - root.start
    print(f"\nfile.write_at_all (rank lane {root.lane[1]}): "
          f"{window * 1e6:.2f} us end to end, "
          f"{len(segments)} path segments:")
    for segment in segments:
        print(f"  [{segment.start * 1e6:9.2f}, {segment.end * 1e6:9.2f}) us  "
              f"{segment.layer:<26} via {segment.name}")
    layers = layer_breakdown(segments)
    assert layers["total"] == sum(layers[layer] for layer in LAYERS)
    print(f"  layers sum to {layers['total'] * 1e6:.2f} us — "
          "the exact end-to-end window")

    # ------------------------------------------------------------------
    # 3. the aggregated per-operation report (what the bench row embeds)
    # ------------------------------------------------------------------
    report = operation_report(cluster.obs.tracer)
    print("\nper-operation layer breakdown (seconds, summed over "
          "occurrences):")
    for name, entry in report["operations"].items():
        print(f"  {name} x{entry['count']}: "
              f"end-to-end {entry['end_to_end_s']:.6f}s")
        for layer in LAYERS:
            value = entry["layers"][layer]
            if value:
                share = value / entry["end_to_end_s"] * 100
                print(f"    {layer:<26} {value:.6f}s  ({share:4.1f}%)")

    # ------------------------------------------------------------------
    # 4. the latency digest the same run collected
    # ------------------------------------------------------------------
    columns = digest_columns(cluster.obs.registry)
    print(f"\nRPC latency digest: {columns['rpc_latency_count']} calls, "
          f"p50 {columns['rpc_latency_p50'] * 1e6:.1f} us, "
          f"p99 {columns['rpc_latency_p99'] * 1e6:.1f} us, "
          f"max {columns['rpc_latency_max'] * 1e6:.1f} us")
    print("every number above derives from the simulation clock — "
          "rerunning this script reproduces it byte-for-byte")


if __name__ == "__main__":
    main()
