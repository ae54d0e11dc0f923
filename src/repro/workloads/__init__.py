"""Workload generators reproducing the paper's access patterns.

* :mod:`repro.workloads.overlap_stress` — Experiment 1: every client writes a
  large set of non-contiguous regions deliberately chosen to overlap with its
  neighbours' regions;
* :mod:`repro.workloads.tile_io` — Experiment 2: a faithful re-implementation
  of the MPI-tile-IO benchmark (dense 2-D tile grid with overlapping tile
  borders);
* :mod:`repro.workloads.queued_writes` — trains of small back-to-back
  vectored writes per rank (checkpoint-style), the pattern the write-pipeline
  benchmarks coalesce;
* :mod:`repro.workloads.collective_checkpoint` — per-round collective dumps
  of interleaved blocks (each rank a stride, the union dense), the pattern
  two-phase collective buffering aggregates;
* :mod:`repro.workloads.collective_read` — the read-side mirror: per-round
  collective scans of a checkpoint's interleaved blocks (optionally with
  halo overlap), the pattern aggregated metadata resolution serves;
* :mod:`repro.workloads.shared_scan` — independent readers co-located on
  shared compute nodes (identical-extent and streaming patterns), the
  workload the node-local shared metadata cache amortizes;
* :mod:`repro.workloads.random_vectored` — seed-derived random vectored
  patterns (disjoint within a rank, overlapping across ranks, optional
  hot-spot window), the scenario fuzzer's workhorse family.
"""

from repro.workloads.overlap_stress import OverlapStressWorkload
from repro.workloads.queued_writes import QueuedWritesWorkload
from repro.workloads.collective_checkpoint import CollectiveCheckpointWorkload
from repro.workloads.collective_read import CollectiveReadWorkload
from repro.workloads.shared_scan import SharedScanWorkload
from repro.workloads.tile_io import TileIOWorkload
from repro.workloads.random_vectored import RandomVectoredWorkload

__all__ = [
    "OverlapStressWorkload",
    "QueuedWritesWorkload",
    "CollectiveCheckpointWorkload",
    "CollectiveReadWorkload",
    "SharedScanWorkload",
    "TileIOWorkload",
    "RandomVectoredWorkload",
]
