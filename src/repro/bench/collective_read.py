"""Collective-read microbenchmark: metadata RPCs per read vs aggregation.

A :class:`~repro.workloads.collective_read.CollectiveReadWorkload`
(per-round collective scans of a checkpoint dump's interleaved blocks) runs
as a real MPI job through the versioning ADIO driver in two families of
modes:

* ``independent`` — the per-rank baseline (PR 1): every rank's
  ``read_at_all`` resolves its own regions — one ``latest`` round-trip plus
  its own batched segment-tree walk per rank per round;
* ``collective-r<R>`` — aggregated metadata resolution with ``R``
  resolvers: the group pins one snapshot (a single ``latest`` RPC per
  round, elided entirely once a hint is planted), the resolvers walk the
  union extent once and scatter the data (plus the plan, for cache
  warming) over the compute interconnect — non-resolver ranks touch the
  storage control plane zero times.

After the collective rounds every rank issues one *independent* re-read of
its first-round blocks; with the broadcast plan absorbed and the refreshed
read hint, the collective modes answer it at zero metadata RPCs — the
cache-warming signal the ``post_*`` columns record.

Every point records metadata RPCs per logical read, exchange traffic,
simulated read-phase seconds and host wall-clock into
``BENCH_collective_read.json`` (via ``benchmarks/test_perf_collective_
read.py``); all modes of one rank count must return byte-identical data,
which the perf suite asserts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.bench.metrics import CollectiveReadSample
from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.errors import BenchmarkError
from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.obs.digest import digest_columns
from repro.vstore.client import VectoredClient
from repro.workloads.collective_read import CollectiveReadWorkload

PATH = "/scan"


@dataclass
class CollectiveReadSettings:
    """Workload and deployment knobs of the collective-read benchmark."""

    rank_counts: Tuple[int, ...] = (4, 8)
    #: resolver counts tried per rank count (clamped to the rank count;
    #: duplicates after clamping are dropped)
    resolver_counts: Tuple[int, ...] = (1, 2, 4)
    rounds: int = 3
    blocks_per_rank: int = 4
    block_size: int = 8 * 1024
    halo_blocks: int = 1
    #: sparseness of the dump (every k-th block a hole; exercises the
    #: zero-extent elision whose exchange-byte drop the artifact records)
    hole_every: int = 4
    num_providers: int = 4
    num_metadata_providers: int = 2
    chunk_size: int = 16 * 1024
    config: ClusterConfig = field(default_factory=ClusterConfig)
    seed: int = 0

    def scaled_down(self) -> "CollectiveReadSettings":
        """Smoke-mode variant for CI: same shape, a fraction of the work."""
        return replace(
            self,
            rank_counts=(4,),
            resolver_counts=(1, 2),
            rounds=2,
            blocks_per_rank=2,
            block_size=2048,
            num_providers=2,
            chunk_size=4096,
        )

    def workload(self, num_ranks: int) -> CollectiveReadWorkload:
        """The scan workload for one rank count."""
        return CollectiveReadWorkload(
            num_ranks=num_ranks,
            rounds=self.rounds,
            blocks_per_rank=self.blocks_per_rank,
            block_size=self.block_size,
            halo_blocks=self.halo_blocks,
            hole_every=self.hole_every,
        )


@dataclass
class CollectiveReadResult:
    """Sample plus the scans' bytes (for cross-mode equality checks).

    ``per_rank_rpcs`` maps rank -> (metadata RPCs, ``latest`` RPCs) spent
    during the collective phase, so callers can pin the non-resolver-zero
    criterion per rank, not just in aggregate.
    """

    sample: CollectiveReadSample
    read_digest: bytes
    per_rank_rpcs: Dict[int, Tuple[int, int]]


def _mode_name(num_resolvers: Optional[int]) -> str:
    return ("independent" if num_resolvers is None
            else f"collective-r{num_resolvers}")


def run_collective_read_point(num_ranks: int,
                              num_resolvers: Optional[int],
                              settings: Optional[CollectiveReadSettings] = None,
                              ) -> CollectiveReadResult:
    """Run the scan workload once: ``None`` resolvers = baseline."""
    settings = settings or CollectiveReadSettings()
    if num_ranks <= 0:
        raise BenchmarkError("num_ranks must be positive")
    if num_resolvers is not None \
            and not 1 <= num_resolvers <= num_ranks:
        raise BenchmarkError(
            f"resolvers must be in 1..{num_ranks}, got {num_resolvers}")
    wall_started = time.perf_counter()

    # latency digests ride in every point so the artifact carries RPC
    # percentile columns alongside the counter columns
    cluster = Cluster(config=settings.config.copy(latency_digests=True),
                      seed=settings.seed)
    deployment = BlobSeerDeployment(
        cluster,
        num_providers=settings.num_providers,
        num_metadata_providers=settings.num_metadata_providers,
        chunk_size=settings.chunk_size,
        node_prefix="cr",
    )
    workload = settings.workload(num_ranks)

    # the dump the scans read: published once, ahead of the MPI job
    seeder = VectoredClient(deployment, cluster.add_node("cr-seed"),
                            name="cr-seed")

    def seed():
        yield from seeder.create_blob(PATH, workload.file_size,
                                      chunk_size=settings.chunk_size)
        yield from seeder.vwrite_and_wait(PATH, workload.seed_pairs())

    process = cluster.sim.process(seed())
    cluster.sim.run(stop_event=process)

    drivers: Dict[int, VersioningDriver] = {}
    read_spans: Dict[int, Tuple[float, float]] = {}
    post_marks: Dict[int, Tuple[int, int]] = {}
    comms = []

    def rank_main(ctx):
        driver = VersioningDriver(
            deployment, ctx.node, rank_name=f"cr{ctx.rank}",
            write_coalescing=True,
            collective_buffering=num_resolvers is not None,
            collective_reads=num_resolvers is not None,
            collective_aggregators=num_resolvers)
        drivers[ctx.rank] = driver
        if ctx.rank == 0:
            comms.append(ctx.comm)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm,
                                      size_hint=workload.file_size)
        yield from ctx.comm.barrier(ctx.rank)
        started = ctx.sim.now
        scans = []
        for round_index in range(workload.rounds):
            pairs = workload.read_pairs(ctx.rank, round_index)
            blocklengths = [size for _offset, size in pairs]
            displacements = [offset for offset, _size in pairs]
            handle.set_view(0, BYTE,
                            Indexed(blocklengths, displacements, base=BYTE))
            data = yield from handle.read_at_all(0, sum(blocklengths))
            scans.append(data)
        read_spans[ctx.rank] = (started, ctx.sim.now)
        # the cache-warming probe: one independent re-read per rank
        client = driver.client
        post_marks[ctx.rank] = (client.metadata_read_rpcs,
                                client.latest_rpcs)
        handle.set_view(0, BYTE, BYTE)
        first = workload.read_pairs(ctx.rank, 0)[0]
        probe = yield from handle.read_at(first[0], first[1])
        scans.append(probe)
        yield from ctx.comm.barrier(ctx.rank)
        yield from handle.close()
        return scans

    result = run_mpi_job(cluster, num_ranks, rank_main, node_prefix="cr-rank")
    starts = [span[0] for span in read_spans.values()]
    ends = [span[1] for span in read_spans.values()]

    clients = [driver.client for driver in drivers.values()]
    post_metadata = sum(driver.client.metadata_read_rpcs - post_marks[rank][0]
                        for rank, driver in drivers.items())
    post_latest = sum(driver.client.latest_rpcs - post_marks[rank][1]
                      for rank, driver in drivers.items())
    sample = CollectiveReadSample(
        mode=_mode_name(num_resolvers),
        num_ranks=num_ranks,
        num_resolvers=num_resolvers or 0,
        rounds=workload.rounds,
        logical_reads=num_ranks * workload.rounds,
        metadata_rpcs=sum(post_marks[rank][0] for rank in drivers),
        latest_rpcs=sum(post_marks[rank][1] for rank in drivers),
        nodes_fetched=sum(client.metadata_nodes_fetched
                          for client in clients),
        plan_nodes_absorbed=sum(client.plan_nodes_absorbed
                                for client in clients),
        exchange_bytes=sum(driver.reader.stats.bytes_sent
                           for driver in drivers.values()),
        hole_bytes_elided=sum(driver.reader.stats.hole_bytes_elided
                              for driver in drivers.values()),
        plan_nodes_elided=sum(driver.reader.stats.plan_nodes_elided
                              for driver in drivers.values()),
        collectives_completed=comms[0].collectives_completed,
        post_metadata_rpcs=post_metadata,
        post_latest_rpcs=post_latest,
        sim_read_s=max(ends) - min(starts) if starts else 0.0,
        wall_clock_s=time.perf_counter() - wall_started,
        network_model=settings.config.network_model,
        rpc_latency=digest_columns(cluster.obs.registry),
    )
    digest = b"".join(b"".join(scans) for scans in result.results)
    return CollectiveReadResult(sample=sample, read_digest=digest,
                                per_rank_rpcs=dict(post_marks))


def run_collective_read_suite(settings: Optional[CollectiveReadSettings] = None,
                              ) -> Dict[str, CollectiveReadResult]:
    """Every (rank count, mode) point on identical settings.

    Keys are ``"N<ranks>:<mode>"``; each rank count gets the independent
    baseline plus one collective point per distinct clamped resolver count.
    """
    settings = settings or CollectiveReadSettings()
    results: Dict[str, CollectiveReadResult] = {}
    for num_ranks in settings.rank_counts:
        results[f"N{num_ranks}:independent"] = run_collective_read_point(
            num_ranks, None, settings)
        seen = set()
        for count in settings.resolver_counts:
            clamped = min(count, num_ranks)
            if clamped in seen:
                continue
            seen.add(clamped)
            results[f"N{num_ranks}:{_mode_name(clamped)}"] = \
                run_collective_read_point(num_ranks, clamped, settings)
    return results


def suite_rows(results: Dict[str, CollectiveReadResult]
               ) -> List[Dict[str, object]]:
    """The suite's samples as artifact/table rows (insertion order)."""
    return [result.sample.as_row() for result in results.values()]
