"""The measured jobs of the collective-write and collective-read suites.

Both run a real MPI job through the versioning ADIO driver, once per
``(rank count, aggregation)`` point (the ``collective`` and
``collective_read`` entries of :data:`repro.bench.suites.SUITES` explain
the modes), timed between two barriers:

* **write** — a
  :class:`~repro.workloads.collective_checkpoint.CollectiveCheckpointWorkload`:
  per-round collective dumps of interleaved blocks, each round made durable
  with a ``sync``.  ``control_rpcs``/``metadata_put_rpcs`` aggregate the
  write-side control traffic of *all* ranks' clients and ``logical_writes``
  counts the application-issued collective writes (one per rank per round),
  so ``control_rpcs_per_write`` compares across aggregation factors.
* **read** — a :class:`~repro.workloads.collective_read.CollectiveReadWorkload`:
  per-round collective scans of a sparse dump a seeder published ahead of
  the job.  ``metadata_rpcs`` and ``latest_rpcs`` are normalized per
  *logical* read (one per rank per round, however many of them one
  resolver's stripe walk served); ``hole_bytes_elided`` counts the
  never-written bytes shipped as compact hole descriptors instead of
  literal zeros.  After the collective rounds every rank issues one
  *independent* re-read of its first-round blocks, recorded in the
  ``post_*`` columns: the refreshed read hint spares the collective modes
  the ``latest`` round-trip, and the tree walk is each rank's own — warm on
  a resolver for its own stripe, cold elsewhere (the scatter carries no
  metadata), and still well under one independent round's walks.

``exchange_bytes`` is the MPI-side two-phase traffic the aggregation spends
instead of control RPCs — encoded access descriptions plus the shuffled
blocks (write) or the scattered pieces and hole descriptors (read).  It
moves over the compute interconnect, not the storage control plane, and is
reported so the trade is visible.  All modes
of one rank count must move byte-identical data, which the perf suites
assert from each point's ``read_digest``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.harness import deploy, seed_blob
from repro.bench.metrics import per, write_columns
from repro.blobseer.client import BlobClient
from repro.errors import BenchmarkError
from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.obs.digest import digest_columns
from repro.obs.registry import MetricsRegistry
from repro.obs.views import collect_all
from repro.workloads.collective_checkpoint import CollectiveCheckpointWorkload
from repro.workloads.collective_read import CollectiveReadWorkload


def checkpoint_workload(settings, num_ranks: int
                        ) -> CollectiveCheckpointWorkload:
    """The collective-write suite's workload for one rank count."""
    return CollectiveCheckpointWorkload(
        num_ranks=num_ranks,
        rounds=settings.rounds,
        blocks_per_rank=settings.blocks_per_rank,
        block_size=settings.block_size,
    )


def scan_workload(settings, num_ranks: int) -> CollectiveReadWorkload:
    """The collective-read suite's workload for one rank count."""
    return CollectiveReadWorkload(
        num_ranks=num_ranks,
        rounds=settings.rounds,
        blocks_per_rank=settings.blocks_per_rank,
        block_size=settings.block_size,
        halo_blocks=settings.halo_blocks,
        hole_every=settings.hole_every,
    )


def _run_timed_job(cluster, deployment, prefix: str, path: str,
                   num_ranks: int, aggregators: Optional[int], file_size: int,
                   body, **driver_options):
    """Run ``body`` on every rank of one MPI job, between two barriers.

    Each rank builds its own :class:`VersioningDriver` (``aggregators=None``
    is the independent baseline), opens ``path`` collectively and runs
    ``body(ctx, handle, driver, stop_clock)``; the measured window of a rank
    runs from the opening barrier to its ``stop_clock()`` call.  Returns the
    drivers by rank, the job's communicator, the simulated seconds between
    the first rank's start and the last rank's stop, and the ranks' results.
    """
    if num_ranks <= 0:
        raise BenchmarkError("num_ranks must be positive")
    if aggregators is not None and not 1 <= aggregators <= num_ranks:
        raise BenchmarkError(
            f"aggregators must be in 1..{num_ranks}, got {aggregators}")
    drivers: Dict[int, VersioningDriver] = {}
    spans: Dict[int, Tuple[float, float]] = {}
    comms = []

    def rank_main(ctx):
        driver = VersioningDriver(
            deployment, ctx.node, rank_name=f"{prefix}{ctx.rank}",
            write_coalescing=True,
            collective_buffering=aggregators is not None,
            collective_aggregators=aggregators, **driver_options)
        drivers[ctx.rank] = driver
        if ctx.rank == 0:
            comms.append(ctx.comm)
        handle = yield from File.open(driver, path, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=file_size)
        yield from ctx.comm.barrier(ctx.rank)
        started = ctx.sim.now

        def stop_clock():
            spans[ctx.rank] = (started, ctx.sim.now)

        result = yield from body(ctx, handle, driver, stop_clock)
        yield from ctx.comm.barrier(ctx.rank)
        yield from handle.close()
        return result

    job = run_mpi_job(cluster, num_ranks, rank_main,
                      node_prefix=f"{prefix}-rank")
    elapsed = (max(end for _start, end in spans.values())
               - min(start for start, _end in spans.values()))
    return drivers, comms[0], elapsed, job.results


def run_collective_point(settings, config, *, num_ranks: int,
                         num_aggregators: Optional[int]):
    """Run the checkpoint workload once (``None`` aggregators = baseline);
    returns the artifact row and the file contents read back."""
    # latency digests ride in every point so the artifact carries RPC
    # percentile columns alongside the counter columns
    cluster, deployment = deploy(settings, config.copy(latency_digests=True),
                                 "cb")
    workload = checkpoint_workload(settings, num_ranks)

    def body(ctx, handle, driver, stop_clock):
        for round_index in range(workload.rounds):
            pairs = workload.write_pairs(ctx.rank, round_index)
            handle.set_view(filetype=Indexed.of_extents(
                (offset, len(payload)) for offset, payload in pairs))
            yield from handle.write_at_all(
                0, b"".join(payload for _offset, payload in pairs))
            # a checkpoint round is durable before the next one starts
            yield from handle.sync()
        stop_clock()

    drivers, comm, elapsed, _results = _run_timed_job(
        cluster, deployment, "cb", "/checkpoint", num_ranks, num_aggregators,
        workload.file_size, body)

    # read-back for the cross-mode equality check (fresh client, latest)
    verifier = BlobClient(deployment, cluster.add_node("cb-verify"),
                          name="cb-verify")

    def verify():
        pieces = yield from verifier.vread("/checkpoint",
                                           [(0, workload.file_size)])
        return pieces[0]

    digest = cluster.sim.run(stop_event=cluster.sim.process(verify()))

    metrics = collect_all(MetricsRegistry(), drivers=drivers.values(),
                          comms=[comm])
    row = {
        "mode": ("independent" if num_aggregators is None
                 else f"collective-a{num_aggregators}"),
        "ranks": num_ranks,
        "aggregators": num_aggregators or 0,
        "rounds": workload.rounds,
        **write_columns(metrics),
        "exchange_bytes": metrics.get("collective.write.bytes_sent"),
        "collectives_completed": metrics.get("mpi.collectives_completed"),
        "latest_rpcs_elided": metrics.get(
            "metadata.client.latest_rpcs_elided"),
        "sim_write_s": elapsed,
        "network_model": config.network_model,
        **digest_columns(cluster.obs.registry),
    }
    return row, {"read_digest": digest}


def run_collective_read_point(settings, config, *, num_ranks: int,
                              num_resolvers: Optional[int]):
    """Run the scan workload once (``None`` resolvers = baseline); returns
    the artifact row, the scans' bytes and the per-rank counters."""
    cluster, deployment = deploy(settings, config.copy(latency_digests=True),
                                 "cr")
    workload = scan_workload(settings, num_ranks)

    # the dump the scans read: published once, ahead of the MPI job
    seed_blob(cluster, deployment, settings, "cr-seed", "/scan",
              workload.file_size, workload.seed_pairs())

    #: rank -> (metadata RPCs, ``latest`` RPCs) spent in the collective phase
    post_marks: Dict[int, Tuple[int, int]] = {}

    def body(ctx, handle, driver, stop_clock):
        scans: List[bytes] = []
        for round_index in range(workload.rounds):
            pairs = workload.read_pairs(ctx.rank, round_index)
            handle.set_view(filetype=Indexed.of_extents(pairs))
            data = yield from handle.read_at_all(
                0, sum(size for _offset, size in pairs))
            scans.append(data)
        stop_clock()
        # the post-collective probe: one independent re-read per rank
        marks = collect_all(MetricsRegistry(), clients=[driver.client])
        post_marks[ctx.rank] = (marks.get("metadata.client.read_rpcs"),
                                marks.get("metadata.client.latest_rpcs"))
        handle.set_view(0, BYTE, BYTE)
        first = workload.read_pairs(ctx.rank, 0)[0]
        probe = yield from handle.read_at(first[0], first[1])
        scans.append(probe)
        return scans

    drivers, comm, elapsed, results = _run_timed_job(
        cluster, deployment, "cr", "/scan", num_ranks, num_resolvers,
        workload.file_size, body)

    metrics = collect_all(MetricsRegistry(), drivers=drivers.values(),
                          comms=[comm])
    logical_reads = num_ranks * workload.rounds
    metadata_rpcs = sum(marks[0] for marks in post_marks.values())
    latest_rpcs = sum(marks[1] for marks in post_marks.values())
    row = {
        "mode": ("independent" if num_resolvers is None
                 else f"collective-r{num_resolvers}"),
        "ranks": num_ranks,
        "resolvers": num_resolvers or 0,
        "rounds": workload.rounds,
        "logical_reads": logical_reads,
        "metadata_rpcs": metadata_rpcs,
        "latest_rpcs": latest_rpcs,
        "metadata_rpcs_per_read": per(metadata_rpcs + latest_rpcs,
                                      logical_reads),
        "nodes_fetched": metrics.get("metadata.client.nodes_fetched"),
        "exchange_bytes": metrics.get("collective.read.bytes_sent"),
        "hole_bytes_elided": metrics.get("collective.read.hole_bytes_elided"),
        "collectives_completed": metrics.get("mpi.collectives_completed"),
        "post_metadata_rpcs": (metrics.get("metadata.client.read_rpcs")
                               - metadata_rpcs),
        "post_latest_rpcs": (metrics.get("metadata.client.latest_rpcs")
                             - latest_rpcs),
        "sim_read_s": elapsed,
        "network_model": config.network_model,
        **digest_columns(cluster.obs.registry),
    }
    return row, {
        "read_digest": b"".join(b"".join(scans) for scans in results),
        "per_rank_rpcs": post_marks,
    }
