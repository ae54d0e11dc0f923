"""The paper's experiments and ablations as suite points.

Every function here is a *point* of :data:`repro.bench.suites.SUITES` —
``point(settings, config, **kwargs) -> (row, extras)`` — so one runner
(``run_suite``) sweeps them, the ``paper`` entry recording EXP1/EXP2 next to
the paper's 3.5x-10x band and the ``ablations`` entry EXP1b, ABL1-3 and FUT1
(``benchmarks/README.md`` lists what each label varies).  Each point builds a
fresh environment with the default node names and seed, so a row depends on
its own parameters only.

The paper reports *shapes*, not absolute values we could match on different
hardware: the versioning backend keeps scaling with the number of concurrent
writers while the locking baseline stays flat (serialized), yielding 3.5x-10x
higher aggregated throughput.  ``benchmarks/test_paper.py`` and
``benchmarks/test_ablations.py`` assert those shapes.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.bench.environment import build_environment
from repro.bench.harness import RunResult, run_atomic_write_job
from repro.bench.metrics import MiB, per
from repro.bench.producer_consumer import run_fut1_point
from repro.cluster import ClusterConfig
from repro.workloads.overlap_stress import OverlapStressWorkload
from repro.workloads.tile_io import TileIOWorkload

#: the aggregated-throughput improvement the paper reports
PAPER_BAND = (3.5, 10)

#: what each experiment's row reports of one overlapped-write measurement
_EXP1_COLUMNS = ("experiment", "backend", "clients", "regions_per_client",
                 "region_kib", "overlap", "total_mib", "elapsed_s",
                 "throughput_mib_s", "lock_wait_s")
OVERLAP_COLUMNS = {
    "EXP1": _EXP1_COLUMNS + ("disk_ios_per_write", "disk_overhead_share"),
    "EXP1b": _EXP1_COLUMNS,
    "ABL1": ("experiment", "providers", "clients", "throughput_mib_s",
             "load_imbalance"),
    "ABL2": ("experiment", "backend", "clients", "overlap",
             "throughput_mib_s", "lock_wait_s"),
    "ABL3": ("experiment", "clients", "regions_per_client", "publish_cost_ms",
             "metadata_nodes", "throughput_mib_s"),
}


def _run_point(settings, config: ClusterConfig, backend: str, num_clients: int,
               pairs_for_rank, file_size: int, num_storage_nodes: int,
               **deployment) -> RunResult:
    """Build a fresh environment and run one atomic-mode write job on it."""
    environment = build_environment(
        backend,
        num_storage_nodes=num_storage_nodes,
        stripe_unit=settings.stripe_unit,
        num_metadata_providers=settings.num_metadata_providers,
        config=config,
        **deployment,
    )
    return run_atomic_write_job(environment, num_clients, pairs_for_rank,
                                file_size=file_size)


def _disk_ios_per_write(result: RunResult) -> float:
    """Disk I/Os the storage nodes paid per rank-write (a job is one write
    per rank) — the mechanism behind a small-piece workload's throughput."""
    return per(result.cluster_stats["disk_operations"], result.num_clients)


def _disk_overhead_share(result: RunResult, config: ClusterConfig) -> float:
    """Share of the storage nodes' disk time that was per-I/O overhead, not
    bytes moving: how far a backend sits from the disks' bandwidth bound."""
    stats = result.cluster_stats
    overhead = stats["disk_operations"] * config.disk_overhead
    return overhead / stats["disk_busy_s"] if overhead else 0.0


def run_overlap_point(settings, config: ClusterConfig, *, experiment: str,
                      backend: str, clients: int,
                      overlap: Optional[float] = None,
                      providers: Optional[int] = None,
                      regions_per_client: Optional[int] = None,
                      region_size: Optional[int] = None,
                      publish_cost: float = 0.0):
    """Concurrent overlapped non-contiguous writes, one backend, one client
    count: EXP1 (Fig. A) as is, and every experiment that varies one thing
    about it — ``overlap`` (EXP1b's disjoint control, ABL2), the data
    ``providers`` (ABL1), ``regions_per_client`` of ``region_size`` and the
    per-snapshot ``publish_cost`` (ABL3).  ``None`` keeps the suite's setting;
    the row is the experiment's :data:`OVERLAP_COLUMNS`.
    """
    def setting(value, name):
        return getattr(settings, name) if value is None else value

    overlap = setting(overlap, "overlap_fraction")
    providers = setting(providers, "num_storage_nodes")
    workload = OverlapStressWorkload(
        num_clients=clients,
        regions_per_client=setting(regions_per_client, "regions_per_client"),
        region_size=setting(region_size, "region_size"),
        overlap_fraction=overlap,
    )
    result = _run_point(settings, config, backend, clients,
                        workload.client_pairs, workload.file_size,
                        providers, publish_cost=publish_cost)
    stats = result.storage_stats
    measured = {
        "experiment": experiment,
        "backend": backend,
        "clients": clients,
        "providers": providers,
        "regions_per_client": workload.regions_per_client,
        "region_kib": workload.region_size // 1024,
        "overlap": overlap,
        "publish_cost_ms": publish_cost * 1000,
        "total_mib": result.total_bytes / MiB,
        "elapsed_s": result.write_elapsed,
        "throughput_mib_s": result.throughput_mib,
        "lock_wait_s": result.lock_wait_time,
        "disk_ios_per_write": _disk_ios_per_write(result),
        "disk_overhead_share": _disk_overhead_share(result, config),
        "load_imbalance": stats.get("load_imbalance", 1.0),
        "metadata_nodes": stats.get("metadata_nodes", 0),
    }
    return {column: measured[column]
            for column in OVERLAP_COLUMNS[experiment]}, {}


def run_tile_point(settings, config: ClusterConfig, *, backend: str,
                   clients: int):
    """EXP2 (Fig. B): the MPI-tile-IO write phase on a near-square grid of
    ``clients`` overlapping tiles, one backend."""
    workload = TileIOWorkload(
        nr_tiles_x=1, nr_tiles_y=1,
        sz_tile_x=settings.tile_elements_x, sz_tile_y=settings.tile_elements_y,
        sz_element=settings.element_size,
        overlap_x=settings.tile_overlap, overlap_y=settings.tile_overlap,
    ).scaled_to(clients)
    result = _run_point(settings, config, backend,
                        workload.num_processes, workload.rank_pairs,
                        workload.file_size, settings.num_storage_nodes)
    return {
        "experiment": "EXP2",
        "backend": backend,
        "clients": workload.num_processes,
        "tile_grid": f"{workload.nr_tiles_x}x{workload.nr_tiles_y}",
        "tile_elements": f"{workload.sz_tile_x}x{workload.sz_tile_y}",
        "element_bytes": workload.sz_element,
        "overlap_elements": workload.overlap_x,
        "total_mib": result.total_bytes / MiB,
        "elapsed_s": result.write_elapsed,
        "throughput_mib_s": result.throughput_mib,
        "lock_wait_s": result.lock_wait_time,
        "disk_ios_per_write": _disk_ios_per_write(result),
        "disk_overhead_share": _disk_overhead_share(result, config),
    }, {}


def run_paper_point(settings, config: ClusterConfig, *, experiment: str,
                    clients: int):
    """One ``BENCH_paper.json`` row — EXP3, the headline table: versioning
    over Lustre-like locking at one client count of EXP1 or EXP2, and whether
    that speedup falls in the paper's band.  The extras are the two backends'
    own rows, keyed by backend."""
    point = (run_tile_point if experiment == "EXP2"
             else partial(run_overlap_point, experiment=experiment))
    rows = {backend: point(settings, config, backend=backend,
                           clients=clients)[0]
            for backend in ("versioning", "posix-locking")}
    ours = rows["versioning"]["throughput_mib_s"]
    baseline = rows["posix-locking"]["throughput_mib_s"]
    speedup = ours / baseline if baseline else float("inf")
    low, high = PAPER_BAND
    return {
        "experiment": experiment,
        "clients": rows["versioning"]["clients"],
        "versioning_mib_s": ours,
        "lustre_locking_mib_s": baseline,
        "speedup": speedup,
        "in_paper_band": low <= speedup <= high,
        "versioning_disk_ios_per_write":
            rows["versioning"]["disk_ios_per_write"],
        "locking_disk_ios_per_write":
            rows["posix-locking"]["disk_ios_per_write"],
        "versioning_disk_overhead_share":
            rows["versioning"]["disk_overhead_share"],
        "locking_disk_overhead_share":
            rows["posix-locking"]["disk_overhead_share"],
    }, rows


def run_ablation_point(settings, config: ClusterConfig, *, experiment: str,
                       **kwargs):
    """A point of the ``ablations`` entry: FUT1's mixed read/write job, or
    the overlapped-write job for every other label."""
    if experiment == "FUT1":
        return run_fut1_point(settings, config, **kwargs)
    return run_overlap_point(settings, config, experiment=experiment, **kwargs)
