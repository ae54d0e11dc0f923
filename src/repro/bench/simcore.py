"""Simulator-core benchmark: end-to-end invariants of the collective path.

Two kinds of point feed ``BENCH_simcore.json``:

* **collective I/O points** — the fine-grained interleaved collective
  checkpoint (every rank writes ``blocks_per_rank`` blocks of
  ``block_size`` bytes at stride ``num_ranks * block_size``, then reads its
  slice back ``read_rounds`` times through ``read_at_all``), a workload
  whose host time is almost all simulator and domain code.  Each point records
  simulated seconds, processed simulator events and a SHA-256 digest of the
  final file contents (the cross-``network_model`` byte-identity witness).
* **scale points** — larger rank counts under the queued network model,
  including the 4096-rank smoke point the acceptance criteria ask for.

The derived block checks that the bottleneck and queued network models
move the same bytes and that tracing leaves the simulation untouched.
Host time is judged by ``perfbench``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.blobseer.client import BlobClient
from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.obs.critpath import dump_report, operation_report
from repro.obs.digest import digest_columns
from repro.obs.export import dump_chrome_trace
from repro.obs.views import collect_all

PATH = "/simcore"


# ----------------------------------------------------------------------
# collective I/O point
# ----------------------------------------------------------------------
def run_collective_io_point(num_ranks: int, blocks_per_rank: int,
                            block_size: int, read_rounds: int,
                            num_aggregators: int, config: ClusterConfig,
                            num_providers: int = 8,
                            num_metadata_providers: int = 2,
                            chunk_size: int = 16 * 1024,
                            seed: int = 0,
                            trace_path: Optional[str] = None,
                            critpath_path: Optional[str] = None,
                            ) -> Dict[str, object]:
    """Run one interleaved collective write/read point; return its row.

    Every rank owns ``blocks_per_rank`` blocks of ``block_size`` bytes at
    stride ``num_ranks * block_size`` (fully interleaved), writes them with
    one ``write_at_all``, syncs, then performs ``read_rounds`` collective
    reads of its slice — each asserted against the written payload.  The
    row's ``read_digest`` hashes the final file contents read back by an
    independent client, so two runs moved the same bytes iff their digests
    match (regardless of ``network_model``).

    The row's ``metrics`` embeds the unified registry snapshot (collected
    *after* the run — pull-based, so it never perturbs the measurement)
    with every partition identity re-asserted.  ``trace_path`` dumps the
    run's Chrome trace and ``critpath_path`` its per-operation
    critical-path layer breakdown when ``config.tracing`` is on.
    """
    stride = num_ranks * block_size
    file_size = blocks_per_rank * stride
    cluster = Cluster(config=config, seed=seed)
    deployment = BlobSeerDeployment(
        cluster, num_providers=num_providers,
        num_metadata_providers=num_metadata_providers,
        chunk_size=chunk_size, node_prefix="sc")
    drivers: List[VersioningDriver] = []
    comms: List[object] = []

    def rank_main(ctx):
        driver = VersioningDriver(
            deployment, ctx.node, rank_name=f"sc{ctx.rank}",
            write_coalescing=True, collective_buffering=True,
            collective_aggregators=num_aggregators)
        drivers.append(driver)
        if ctx.rank == 0:
            comms.append(ctx.comm)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=file_size)
        displacements = [index * stride + ctx.rank * block_size
                         for index in range(blocks_per_rank)]
        handle.set_view(0, BYTE, Indexed([block_size] * blocks_per_rank,
                                         displacements, base=BYTE))
        payload = bytes([(ctx.rank + 1) % 251]) * (blocks_per_rank * block_size)
        yield from handle.write_at_all(0, payload)
        yield from handle.sync()
        for _ in range(read_rounds):
            data = yield from handle.read_at_all(0, blocks_per_rank * block_size)
            if data != payload:
                raise AssertionError(
                    f"rank {ctx.rank}: collective read returned wrong bytes")
        yield from handle.close()

    run_mpi_job(cluster, num_ranks, rank_main, node_prefix="sc-rank")

    verifier = BlobClient(deployment, cluster.add_node("sc-verify"),
                          name="sc-verify")

    def read_back():
        pieces = yield from verifier.vread(PATH, [(0, file_size)])
        return pieces[0]

    process = cluster.sim.process(read_back())
    content = cluster.sim.run(stop_event=process)

    # pull the scattered stats surfaces into the unified registry and
    # re-assert the partition identities on this run's values.  The
    # verifier client is included, so the collected client set is complete.
    registry = collect_all(
        cluster.obs.registry, cluster=cluster, deployment=deployment,
        clients=[driver.client for driver in drivers] + [verifier],
        drivers=drivers, comms=comms, complete_clients=True)
    registry.assert_identities()

    if trace_path and cluster.obs.tracing:
        dump_chrome_trace(cluster.obs.tracer, trace_path,
                          telemetry=cluster.obs.link_telemetry)

    row: Dict[str, object] = {
        "kind": "collective_io",
        "num_ranks": num_ranks,
        "blocks_per_rank": blocks_per_rank,
        "block_size": block_size,
        "read_rounds": read_rounds,
        "num_aggregators": num_aggregators,
        "network_model": config.network_model,
        "sim_elapsed_s": round(cluster.sim.now, 6),
        "processed_events": cluster.sim.processed_events,
        "read_digest": hashlib.sha256(content).hexdigest(),
        "tracing": config.tracing,
        "metrics": registry.snapshot(),
    }
    if config.latency_digests:
        # promoted percentile columns (the full digest catalog is in
        # ``metrics``): RPC round-trip latency of the whole run
        row.update(digest_columns(registry))
    if cluster.obs.tracing:
        row["critpath"] = (dump_report(cluster.obs.tracer, critpath_path)
                           if critpath_path
                           else operation_report(cluster.obs.tracer))
    return row


# ----------------------------------------------------------------------
# suite plan and headline (the ``simcore`` entry of repro.bench.suites)
# ----------------------------------------------------------------------
def run_simcore_point(settings, config, *,
                      overrides: Optional[Dict[str, object]] = None,
                      **shape):
    """One suite row (no extras): a collective I/O point of ``shape`` under
    ``config`` with ``overrides`` applied."""
    # latency digests ride in every point — the headline *and* its traced
    # twin — so the tracing invariant keeps comparing identical metric sets
    return run_collective_io_point(
        config=config.copy(latency_digests=True, **(overrides or {})),
        num_providers=settings.num_providers,
        num_metadata_providers=settings.num_metadata_providers,
        chunk_size=settings.chunk_size, seed=settings.seed, **shape), {}


def simcore_plan(settings) -> List[Tuple[str, Dict[str, object]]]:
    """The suite's ordered ``(label, point)`` list."""
    headline = dict(num_ranks=settings.num_ranks,
                    blocks_per_rank=settings.blocks_per_rank,
                    block_size=settings.block_size,
                    read_rounds=settings.read_rounds,
                    num_aggregators=settings.num_aggregators)
    plan = [
        ("headline", headline),
        ("headline-traced", dict(headline, overrides={"tracing": True})),
        ("headline-queued", dict(headline,
                                 overrides={"network_model": "queued"})),
    ]
    for ranks, blocks, block_size, rounds in (*settings.scale_points,
                                              settings.smoke_point):
        plan.append((f"scale-{ranks}", dict(
            num_ranks=ranks, blocks_per_rank=blocks, block_size=block_size,
            read_rounds=rounds, num_aggregators=max(1, ranks // 4),
            overrides={"network_model": "queued"})))
    return plan


def simcore_headline(rows: Dict[str, Dict[str, object]],
                     ) -> Dict[str, object]:
    """The artifact's derived block: the cross-model digest check and the
    tracing invariant."""
    headline = rows["headline"]
    traced = rows["headline-traced"]
    queued = rows["headline-queued"]
    return {
        "digests_identical_across_network_models":
            headline["read_digest"] == queued["read_digest"],
        # tracing must not perturb the simulation: the traced headline
        # replays the identical timeline, event count, bytes and metrics
        "tracing_invariant": (
            traced["read_digest"] == headline["read_digest"]
            and traced["sim_elapsed_s"] == headline["sim_elapsed_s"]
            and traced["processed_events"] == headline["processed_events"]
            and traced["metrics"] == headline["metrics"]),
    }
