#!/usr/bin/env python3
"""MPI-tile-IO on both storage back-ends (the paper's second experiment).

Every MPI process owns one tile of a dense 2-D dataset; adjacent tiles
overlap by a configurable number of elements, so the concurrent dump of all
tiles into the shared file needs MPI atomic mode.  The example sweeps the
number of processes and prints the aggregated write throughput of the
versioning backend and of the Lustre-like locking baseline — a small-scale
rendition of Figure B.

Run it with::

    python examples/tile_io_comparison.py
"""

from repro.bench.environment import build_environment
from repro.bench.harness import run_atomic_write_job, verify_job_atomicity
from repro.bench.reporting import format_series
from repro.workloads.tile_io import TileIOWorkload

CLIENT_COUNTS = (1, 2, 4, 8)
BACKENDS = ("versioning", "posix-locking")


def main() -> None:
    base = TileIOWorkload(sz_tile_x=64, sz_tile_y=64, sz_element=32,
                          overlap_x=8, overlap_y=8)
    curves = {backend: {} for backend in BACKENDS}

    for clients in CLIENT_COUNTS:
        workload = base.scaled_to(clients)
        for backend in BACKENDS:
            environment = build_environment(backend, num_storage_nodes=8)
            result = run_atomic_write_job(environment, workload.num_processes,
                                          workload.rank_pairs,
                                          workload.file_size)
            curves[backend][clients] = result.throughput_mib
            atomic_ok = verify_job_atomicity(environment, workload.num_processes,
                                             workload.rank_pairs, result)
            print(f"{backend:15s} {clients:2d} tiles "
                  f"({workload.nr_tiles_x}x{workload.nr_tiles_y}): "
                  f"{result.throughput_mib:8.1f} MiB/s, "
                  f"lock wait {result.lock_wait_time:6.3f} s, "
                  f"MPI atomicity {'OK' if atomic_ok else 'VIOLATED'}")

    print()
    print(format_series(curves, title="MPI-tile-IO aggregated write throughput "
                                      "(simulated MiB/s)"))
    print("\nShape to look for: the versioning backend keeps scaling with the "
          "tile count,\nthe locking baseline serializes on the overlapped "
          "borders and stays flat or degrades.")


if __name__ == "__main__":
    main()
