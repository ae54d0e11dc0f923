"""The workloads: seeded inputs, the simulated job, and its verification.

Each workload is closed-loop (a simulated rank issues its next call when the
previous one returns) and every repetition builds a fresh cluster, so the
modelled caches start empty and the statistics cover the whole job.  A job
is a write phase and a read phase, each between barriers; every measured
call is timed on the simulation clock from here, outside the program.

The seed decides the ``Cluster`` seed, the payload fill bytes (distinct per
write, so that a byte names its writer) and each rank's think time before
each call: ranks leave a barrier in rank order, ``THINK_GAP_S`` apart, plus
seeded noise below a quarter of that gap.  The noise moves every simulated
figure in its low digits without reordering simultaneous arrivals, so the
simulated metrics can carry tight bounds across seeds; which rank gets which
access is fixed, because permuting it moves the locking baseline's
throughput by several percent through tie-breaking alone.  The program sees
only the generated inputs.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.errors import ReproError
from repro.mpi.datatypes import BYTE, Datatype, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.posix_locking import PosixLockingDriver
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.posixfs.deployment import PosixFsDeployment
from repro.vstore.client import VectoredClient
from repro.workloads import (CollectiveCheckpointWorkload,
                             OverlapStressWorkload, SharedScanWorkload,
                             TileIOWorkload)

from perfbench import atomicity

PATH = "/perfbench"
MIB = 1024 * 1024

#: storage shape shared by every workload (the paper's 8 storage nodes)
STORAGE_NODES = 8
METADATA_SHARDS = 2

#: spacing of the ranks' think times, simulated seconds
THINK_GAP_S = 1e-6


# ----------------------------------------------------------------------
# what a repetition leaves behind
# ----------------------------------------------------------------------
@dataclass
class JobRun:
    """One finished repetition: the live objects plus what was metered."""

    cluster: Cluster
    deployment: object
    #: host seconds spent building cluster + deployment (part of ``host_s``)
    build_host_s: float
    drivers: list = field(default_factory=list)
    #: every blob client that attached to a versioning deployment
    clients: list = field(default_factory=list)
    comms: list = field(default_factory=list)
    #: ``(call name, simulated seconds)`` of every measured call that returned
    ops: List[Tuple[str, float]] = field(default_factory=list)
    #: measured calls that raised
    raised: int = 0
    #: phase -> (application bytes, earliest start, latest end) in sim time
    phases: Dict[str, Tuple[int, float, float]] = field(default_factory=dict)
    #: what the measured read calls returned, for verification
    reads: dict = field(default_factory=dict)

    def call(self, name: str, generator, trace_ctx, think: float):
        """Think, then run one measured call; time it and root its span
        from outside."""
        sim = self.cluster.sim
        yield sim.timeout(think)
        span = None
        if trace_ctx is not None:
            span = trace_ctx.begin(f"perfbench.{name}", cat="op")
        started = sim.now
        try:
            result = yield from generator
        except ReproError:
            self.raised += 1
            return None
        finally:
            if span is not None:
                trace_ctx.finish(span)
        self.ops.append((name, sim.now - started))
        return result

    def phase(self, name: str, nbytes: int, started: float, ended: float):
        """Fold one rank's share of a phase into the job-wide window."""
        total, first, last = self.phases.get(name, (0, started, ended))
        self.phases[name] = (total + nbytes, min(first, started),
                             max(last, ended))

    def mib_per_s(self, name: str) -> float:
        nbytes, started, ended = self.phases[name]
        return nbytes / MIB / (ended - started)


@dataclass
class Verdict:
    """Outcome of checking one repetition's bytes."""

    checks: int
    mismatches: List[str]


#: span names :meth:`JobRun.call` roots, for the critical-path report
OPERATION_SPANS = tuple(f"perfbench.{name}" for name in (
    "write_at", "read_at", "write_at_all", "read_at_all", "vwrite", "vread"))


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _think_times(rng: random.Random, calls: int,
                 ranks: int) -> Tuple[Tuple[float, ...], ...]:
    """call -> rank -> simulated seconds to wait before issuing it."""
    return tuple(tuple(rank * THINK_GAP_S + rng.uniform(0.0, THINK_GAP_S / 4)
                       for rank in range(ranks))
                 for _ in range(calls))


def _fingerprint(*generated) -> str:
    """Digest of the seed-generated part of a workload's inputs."""
    return hashlib.sha256(repr(generated).encode()).hexdigest()


def _drive(cluster: Cluster, generator, name: str):
    process = cluster.sim.process(generator, name=name)
    return cluster.sim.run(stop_event=process)


# ----------------------------------------------------------------------
# overlap_write / tile_io, on either backend
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AtomicWriteInputs:
    seed: int
    file_size: int
    #: rank -> file view of its access
    filetypes: Tuple[Datatype, ...]
    #: timestep -> rank -> fill byte; distinct over all writes, never 0
    fills: Tuple[Tuple[int, ...], ...]
    #: call (the timesteps, then the restart read) -> rank -> think time
    think: Tuple[Tuple[float, ...], ...]

    def fingerprint(self) -> str:
        return _fingerprint(self.fills, self.think)


class AtomicWrite:
    """Concurrent overlapping noncontiguous writes in atomic mode, then a
    restart read of each rank's own view."""

    def __init__(self, name: str, pattern: str, backend: str, why: str,
                 twin: str):
        self.name = name
        self.pattern = pattern
        self.backend = backend
        self.why = why
        #: the same accesses on the other backend
        self.twin = twin

    def _views(self, smoke: bool) -> Tuple[List[Datatype], int, int]:
        """The pattern's per-access file views, file size and timesteps."""
        if self.pattern == "overlap":
            workload = OverlapStressWorkload(
                num_clients=8 if smoke else 32,
                regions_per_client=4 if smoke else 8,
                region_size=16 * 1024 if smoke else 64 * 1024,
                overlap_fraction=0.5)
            views = []
            for client in range(workload.num_clients):
                regions = workload.client_regions(client)
                views.append(Indexed([region.size for region in regions],
                                     [region.offset for region in regions],
                                     base=BYTE))
            return views, workload.file_size, 2 if smoke else 4
        grid, tile = (3, 16) if smoke else (8, 64)
        workload = TileIOWorkload(nr_tiles_x=grid, nr_tiles_y=grid,
                                  sz_tile_x=tile, sz_tile_y=tile,
                                  sz_element=32, overlap_x=tile // 8,
                                  overlap_y=tile // 8)
        views = [workload.rank_datatype(rank)
                 for rank in range(workload.num_processes)]
        return views, workload.file_size, 2

    def inputs(self, seed: int, smoke: bool = False) -> AtomicWriteInputs:
        views, file_size, timesteps = self._views(smoke)
        # twins draw from the pattern's stream: both backends get one input
        rng = _rng(seed, self.pattern)
        values = rng.sample(range(1, 256), timesteps * len(views))
        fills = tuple(tuple(values[step * len(views):(step + 1) * len(views)])
                      for step in range(timesteps))
        return AtomicWriteInputs(seed, file_size, tuple(views), fills,
                                 _think_times(rng, timesteps + 1, len(views)))

    def run(self, inputs: AtomicWriteInputs,
            config: Optional[ClusterConfig] = None) -> JobRun:
        built = time.perf_counter()
        cluster = Cluster(config=config, seed=inputs.seed)
        stripe = 64 * 1024
        if self.backend == "versioning":
            deployment = BlobSeerDeployment(
                cluster, num_providers=STORAGE_NODES,
                num_metadata_providers=METADATA_SHARDS, chunk_size=stripe)
            driver_class = VersioningDriver
        else:
            deployment = PosixFsDeployment(
                cluster, num_osts=STORAGE_NODES, default_stripe_size=stripe,
                default_stripe_count=STORAGE_NODES)
            driver_class = PosixLockingDriver
        run = JobRun(cluster, deployment, time.perf_counter() - built)

        def rank_main(ctx):
            driver = driver_class(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}")
            run.drivers.append(driver)
            if ctx.rank == 0:
                run.comms.append(ctx.comm)
            handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                          comm=ctx.comm,
                                          size_hint=inputs.file_size)
            handle.set_atomicity(True)
            filetype = inputs.filetypes[ctx.rank]
            handle.set_view(0, BYTE, filetype)
            yield from ctx.comm.barrier(ctx.rank)
            started = ctx.sim.now
            for fills, think in zip(inputs.fills, inputs.think):
                payload = bytes([fills[ctx.rank]]) * filetype.size
                yield from run.call("write_at", handle.write_at(0, payload),
                                    driver.trace_context, think[ctx.rank])
            yield from ctx.comm.barrier(ctx.rank)
            written = ctx.sim.now
            run.phase("write", len(inputs.fills) * filetype.size,
                      started, written)
            run.reads[ctx.rank] = yield from run.call(
                "read_at", handle.read_at(0, filetype.size),
                driver.trace_context, inputs.think[-1][ctx.rank])
            yield from ctx.comm.barrier(ctx.rank)
            run.phase("read", filetype.size, written, ctx.sim.now)
            yield from handle.close()

        run_mpi_job(cluster, len(inputs.filetypes), rank_main)
        if self.backend == "versioning":
            run.clients = [driver.client for driver in run.drivers]
        return run

    def verify(self, inputs: AtomicWriteInputs, run: JobRun) -> Verdict:
        """Final file, read by an independent client, is MPI-atomic; every
        restart read returned the final bytes of its view."""
        content = _read_back(run, inputs.file_size)
        ranks = len(inputs.filetypes)
        writes, program_order = [], []
        for step, fills in enumerate(inputs.fills):
            for rank, filetype in enumerate(inputs.filetypes):
                writes.append([(region.offset,
                                bytes([fills[rank]]) * region.size)
                               for region in filetype.flatten()])
                if step:
                    program_order.append(((step - 1) * ranks + rank,
                                          step * ranks + rank))
        mismatches = []
        order, reason = atomicity.explain(writes, content,
                                          happens_before=program_order)
        if order is None:
            mismatches.append(f"final file is not MPI-atomic: {reason}")
        for rank, filetype in enumerate(inputs.filetypes):
            expected = b"".join(content[region.offset:region.end]
                                for region in filetype.flatten())
            if run.reads.get(rank) != expected:
                mismatches.append(f"rank {rank}: restart read differs from "
                                  "the final file")
        return Verdict(checks=1 + ranks, mismatches=mismatches)


def _read_back(run: JobRun, file_size: int) -> bytes:
    """The whole file through a fresh single-rank job on a new node, with a
    default driver of the kind the job used."""
    driver_class = type(run.drivers[0])
    content = []

    def rank_main(ctx):
        driver = driver_class(run.deployment, ctx.node, rank_name="verifier")
        handle = yield from File.open(driver, PATH, rank=0, comm=ctx.comm,
                                      size_hint=file_size)
        content.append((yield from handle.read_at(0, file_size)))
        yield from handle.close()

    # a unique prefix lets one run be read back more than once
    run_mpi_job(run.cluster, 1, rank_main,
                node_prefix=f"verify{len(run.cluster.nodes)}-")
    return content[0]


# ----------------------------------------------------------------------
# collective_ckpt
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CollectiveCkptInputs:
    seed: int
    file_size: int
    block_size: int
    read_rounds: int
    aggregators: int
    #: rank -> block displacements (interleaved stride)
    displacements: Tuple[Tuple[int, ...], ...]
    #: rank -> fill byte, distinct, never 0
    fills: Tuple[int, ...]
    #: call (the write, then the reads) -> rank -> think time
    think: Tuple[Tuple[float, ...], ...]

    def fingerprint(self) -> str:
        return _fingerprint(self.fills, self.think)

    def payload(self, rank: int) -> bytes:
        return bytes([self.fills[rank]]) \
            * (len(self.displacements[rank]) * self.block_size)

    def expected_file(self) -> bytes:
        content = bytearray(self.file_size)
        for rank, offsets in enumerate(self.displacements):
            block = bytes([self.fills[rank]]) * self.block_size
            for offset in offsets:
                content[offset:offset + self.block_size] = block
        return bytes(content)


class CollectiveCkpt:
    """Interleaved collective dump, sync, collective re-reads (the pinned
    ``SEED_REFERENCE`` shape), through two-phase buffering."""

    name = "collective_ckpt"
    backend = "versioning"
    twin = None
    why = ("Interleaved 1 KiB blocks via write_at_all + read_at_all: the only "
           "workload where two-phase exchange, the coalescer and the read-side "
           "metadata walk run; host time is domain code, not event loop.")

    def inputs(self, seed: int, smoke: bool = False) -> CollectiveCkptInputs:
        workload = CollectiveCheckpointWorkload(
            num_ranks=16 if smoke else 64, rounds=1,
            blocks_per_rank=32 if smoke else 256, block_size=1024)
        rng = _rng(seed, self.name)
        displacements = tuple(
            tuple(offset for offset, _ in workload.write_pairs(rank, 0))
            for rank in range(workload.num_ranks))
        fills = tuple(rng.sample(range(1, 256), workload.num_ranks))
        read_rounds = 1 if smoke else 3
        return CollectiveCkptInputs(
            seed, workload.file_size, workload.block_size,
            read_rounds=read_rounds, aggregators=4 if smoke else 16,
            displacements=displacements, fills=fills,
            think=_think_times(rng, 1 + read_rounds, workload.num_ranks))

    def run(self, inputs: CollectiveCkptInputs,
            config: Optional[ClusterConfig] = None) -> JobRun:
        built = time.perf_counter()
        cluster = Cluster(config=config, seed=inputs.seed)
        deployment = BlobSeerDeployment(
            cluster, num_providers=STORAGE_NODES,
            num_metadata_providers=METADATA_SHARDS, chunk_size=16 * 1024)
        run = JobRun(cluster, deployment, time.perf_counter() - built)

        def rank_main(ctx):
            driver = VersioningDriver(
                deployment, ctx.node, rank_name=f"rank{ctx.rank}",
                write_coalescing=True, collective_buffering=True,
                collective_aggregators=inputs.aggregators)
            run.drivers.append(driver)
            if ctx.rank == 0:
                run.comms.append(ctx.comm)
            handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                          comm=ctx.comm,
                                          size_hint=inputs.file_size)
            offsets = inputs.displacements[ctx.rank]
            handle.set_view(0, BYTE, Indexed([inputs.block_size] * len(offsets),
                                             list(offsets), base=BYTE))
            payload = inputs.payload(ctx.rank)
            yield from ctx.comm.barrier(ctx.rank)
            started = ctx.sim.now
            yield from run.call("write_at_all",
                                handle.write_at_all(0, payload),
                                driver.trace_context,
                                inputs.think[0][ctx.rank])
            yield from handle.sync()
            yield from ctx.comm.barrier(ctx.rank)
            written = ctx.sim.now
            run.phase("write", len(payload), started, written)
            scans = []
            for think in inputs.think[1:]:
                scans.append((yield from run.call(
                    "read_at_all", handle.read_at_all(0, len(payload)),
                    driver.trace_context, think[ctx.rank])))
            yield from ctx.comm.barrier(ctx.rank)
            run.phase("read", inputs.read_rounds * len(payload), written,
                      ctx.sim.now)
            run.reads[ctx.rank] = scans
            yield from handle.close()

        run_mpi_job(cluster, len(inputs.fills), rank_main)
        run.clients = [driver.client for driver in run.drivers]
        return run

    def verify(self, inputs: CollectiveCkptInputs, run: JobRun) -> Verdict:
        """Every collective read equals its payload; the final file, read by
        an independent client, hashes to the expected contents."""
        mismatches = []
        for rank in range(len(inputs.fills)):
            if run.reads.get(rank) != [inputs.payload(rank)] \
                    * inputs.read_rounds:
                mismatches.append(f"rank {rank}: a collective read differs "
                                  "from its payload")
        content = _read_back(run, inputs.file_size)
        if hashlib.sha256(content).digest() \
                != hashlib.sha256(inputs.expected_file()).digest():
            mismatches.append("final file hash differs from the expected dump")
        return Verdict(checks=len(inputs.fills) + 1, mismatches=mismatches)


# ----------------------------------------------------------------------
# shared_scan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedScanInputs:
    seed: int
    workload: SharedScanWorkload
    ranks_per_node: int
    #: simulated seconds between consecutive readers' starts
    stagger_s: float
    #: call (the dump, then the rounds) -> reader -> think time
    think: Tuple[Tuple[float, ...], ...]

    def fingerprint(self) -> str:
        return _fingerprint(self.think)


class SharedScan:
    """One dump published once, then independent co-located readers scan it
    through all three metadata cache tiers."""

    name = "shared_scan"
    backend = "versioning"
    twin = None
    why = ("Read-only scans by 64 readers packed 8 per node: all three "
           "metadata cache tiers and the shard read RPCs do the work, the "
           "write path is idle after seeding.")

    def inputs(self, seed: int, smoke: bool = False) -> SharedScanInputs:
        workload = SharedScanWorkload(
            num_clients=8 if smoke else 64, rounds=4 if smoke else 16,
            blocks_per_round=8 if smoke else 32, block_size=8 * 1024,
            pattern="identical")
        return SharedScanInputs(
            seed, workload, ranks_per_node=4 if smoke else 8, stagger_s=0.05,
            think=_think_times(_rng(seed, self.name), 1 + workload.rounds,
                               workload.num_clients))

    def run(self, inputs: SharedScanInputs,
            config: Optional[ClusterConfig] = None) -> JobRun:
        built = time.perf_counter()
        workload = inputs.workload
        config = (config or ClusterConfig()).copy(
            ranks_per_node=inputs.ranks_per_node,
            shared_metadata_cache=True, cooperative_cache=True)
        cluster = Cluster(config=config, seed=inputs.seed)
        deployment = BlobSeerDeployment(
            cluster, num_providers=STORAGE_NODES,
            num_metadata_providers=METADATA_SHARDS,
            chunk_size=workload.block_size)
        run = JobRun(cluster, deployment, time.perf_counter() - built)
        sim = cluster.sim

        # the dump: published once by a writer outside the cache tiers
        seeder = VectoredClient(deployment, cluster.add_node("seeder"),
                                name="seeder", shared_metadata_cache=False)

        def seed():
            yield from seeder.create_blob(PATH, workload.file_size,
                                          chunk_size=workload.block_size)
            started = sim.now
            receipt = yield from run.call(
                "vwrite", seeder.vwrite_and_wait(
                    PATH, [(0, workload.expected_contents())]),
                seeder.trace_ctx, inputs.think[0][0])
            run.phase("write", workload.file_size, started, sim.now)
            return receipt.version

        pinned = _drive(cluster, seed(), "seeder")

        nodes = cluster.place_ranks("reader", workload.num_clients)
        readers = [VectoredClient(deployment, nodes[index],
                                  name=f"reader{index}")
                   for index in range(workload.num_clients)]
        run.clients = [seeder] + readers
        read_started = sim.now

        def reader_main(index):
            client = readers[index]
            # independent processes never start in lockstep; the stagger
            # lets a node's first toucher publish into the shared tier
            yield sim.timeout(index * inputs.stagger_s)
            for round_index in range(workload.rounds):
                pairs = workload.read_pairs(index, round_index)
                run.reads[(index, round_index)] = yield from run.call(
                    "vread", client.vread(PATH, pairs, pinned),
                    client.trace_ctx, inputs.think[1 + round_index][index])
            run.phase("read", workload.rounds * workload.section_size,
                      read_started, sim.now)

        processes = [sim.process(reader_main(index), name=f"reader{index}")
                     for index in range(workload.num_clients)]

        def join():
            yield sim.all_of(processes)

        _drive(cluster, join(), "readers")
        return run

    def verify(self, inputs: SharedScanInputs, run: JobRun) -> Verdict:
        """Every scan piece equals the dump's expected contents."""
        workload = inputs.workload
        content = workload.expected_contents()
        mismatches = []
        for index in range(workload.num_clients):
            for round_index in range(workload.rounds):
                pieces = run.reads.get((index, round_index))
                expected = [content[offset:offset + size] for offset, size
                            in workload.read_pairs(index, round_index)]
                if pieces != expected:
                    mismatches.append(f"reader {index} round {round_index}: "
                                      "scan differs from the dump")
        return Verdict(checks=workload.num_clients * workload.rounds,
                       mismatches=mismatches)


# ----------------------------------------------------------------------
WORKLOADS = {workload.name: workload for workload in (
    AtomicWrite(
        "overlap_write", "overlap", "versioning", twin="overlap_write_locking",
        why=("Paper EXP1: few large overlapping regions per call; the "
             "blobseer write path (chunk writes, segment-tree build, "
             "ticket/publish) does the work, caches and collectives idle.")),
    AtomicWrite(
        "overlap_write_locking", "overlap", "posix-locking",
        twin="overlap_write",
        why=("The same EXP1 accesses on the POSIX-locking baseline: the "
             "byte-range lock manager and the event loop do the work; the "
             "paper's comparison needs both sides measured.")),
    AtomicWrite(
        "tile_io", "tile", "versioning", twin="tile_io_locking",
        why=("Paper EXP2, MPI-tile-IO: many small pieces per call, so "
             "datatype flattening and region algebra dominate the same "
             "write path that overlap_write uses with few large pieces.")),
    AtomicWrite(
        "tile_io_locking", "tile", "posix-locking", twin="tile_io",
        why=("The same EXP2 tiles on the baseline, where covering-extent "
             "locks serialize the ranks: the EXP2 cliff lives here.")),
    CollectiveCkpt(),
    SharedScan(),
)}
