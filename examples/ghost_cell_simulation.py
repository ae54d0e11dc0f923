#!/usr/bin/env python3
"""Ghost-cell simulation dump: the access pattern the paper is built for.

A 2-D heat-diffusion simulation is decomposed over several MPI ranks whose
subdomains overlap at their borders (ghost cells).  After every iteration,
each rank dumps its whole ghost-extended subdomain into a globally shared
snapshot file through the MPI-I/O layer in **atomic mode** — the overlapped
borders are written by several ranks concurrently, which is exactly why MPI
atomicity is needed.

The example runs the same dump once over the paper's versioning backend and
once over the Lustre-like locking baseline, verifies that both produce the
correct global field, and prints how long the dump phase took on each.

Run it with::

    python examples/ghost_cell_simulation.py
"""

import numpy as np

from repro.bench.environment import build_environment
from repro.core.regions import canonical_runs, runs_overlap
from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.file import AccessMode, File
from repro.workloads.ghost_cells import GhostCellSimulation

NUM_RANKS = 4
ITERATIONS = 3
DOMAIN = 48          # 48 x 48 cells
GHOST = 2            # two layers of ghost cells


def run_dumps(backend_name: str, simulation: GhostCellSimulation) -> float:
    """Dump every iteration's field through MPI-I/O; return the dump time."""
    environment = build_environment(backend_name, num_storage_nodes=4,
                                    stripe_unit=16 * 1024)
    cluster = environment.cluster
    dump_time = [0.0]

    def rank_main(ctx):
        driver = environment.driver_factory(ctx)
        handle = yield from File.open(driver, "/snapshots",
                                      AccessMode.default_write(),
                                      rank=ctx.rank, comm=ctx.comm,
                                      size_hint=simulation.file_size)
        handle.set_atomicity(True)

        for iteration in range(ITERATIONS):
            # rank 0 advances the (shared, replicated) field, then broadcasts
            if ctx.rank == 0:
                simulation.step()
            yield from ctx.comm.barrier(ctx.rank)

            pairs = simulation.rank_dump_pairs(ctx.rank)
            lengths = [len(data) for _, data in pairs]
            displacements = [offset for offset, _ in pairs]
            handle.set_view(filetype=Indexed(lengths, displacements, base=BYTE))
            payload = b"".join(data for _, data in pairs)

            yield from ctx.comm.barrier(ctx.rank)
            start = ctx.sim.now
            yield from handle.write_at_all(0, payload)
            yield from ctx.comm.barrier(ctx.rank)
            if ctx.rank == 0:
                dump_time[0] += ctx.sim.now - start

        # rank 0 reads the final snapshot back for verification
        content = b""
        if ctx.rank == 0:
            handle.set_view()
            content = yield from handle.read_at(0, simulation.file_size)
        yield from handle.close()
        return content

    result = run_mpi_job(cluster, NUM_RANKS, rank_main)
    final_content = result.results[0]

    # verify: the shared file holds exactly the global field
    reassembled = simulation.decode_file(final_content)
    np.testing.assert_array_equal(reassembled, simulation.field)
    return dump_time[0]


def main() -> None:
    print(f"2-D heat diffusion, {DOMAIN}x{DOMAIN} cells, {NUM_RANKS} ranks, "
          f"ghost width {GHOST}, {ITERATIONS} iterations\n")

    for backend in ("versioning", "posix-locking"):
        simulation = GhostCellSimulation(domain_x=DOMAIN, domain_y=DOMAIN,
                                         num_ranks=NUM_RANKS, ghost=GHOST)
        runs = [canonical_runs(simulation.tiles.rank_extents(rank))
                for rank in range(NUM_RANKS)]
        overlaps = sum(runs_overlap(runs[a], runs[b])
                       for a in range(NUM_RANKS)
                       for b in range(a + 1, NUM_RANKS))
        elapsed = run_dumps(backend, simulation)
        print(f"{backend:15s}  dump phase {elapsed * 1000:8.2f} ms "
              f"(simulated), {overlaps} overlapping rank pairs, "
              f"file verified OK")

    print("\nBoth backends produce the correct shared file; the versioning "
          "backend does it without any locking.")


if __name__ == "__main__":
    main()
