"""Metadata read-path microbenchmark: RPC counts, cache hit rate, wall clock.

The paper's argument only holds while metadata overhead stays small (the ABL3
ablation measures exactly that), so this module benchmarks the segment-tree
*read* hot path in isolation: an EXP1-style set of clients writes overlapped
non-contiguous regions, then every client reads its regions back several
times from the published snapshots, in each of the client configurations of
:data:`MODES` (explained in the ``metadata`` entry of
:data:`repro.bench.suites.SUITES`).

``metadata_rpcs`` counts the round-trips the clients spent resolving
segment-tree nodes, ``lookups`` the deduplicated node lookups their
traversals asked for — what a read path paying one ``get_node`` round-trip
per lookup would have issued — ``cache_hits``/``cache_misses`` come from the
client-side node caches, ``sim_elapsed_s`` is the simulated time the read
phase occupied.  A region-algebra microbenchmark (pure wall clock, no
simulation) rides along because ``RegionList`` ops sit under every
read-frontier entry.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.bench.harness import cache_totals, start_clients
from repro.bench.metrics import per
from repro.core.regions import Region, RegionList
from repro.errors import BenchmarkError
from repro.workloads.overlap_stress import OverlapStressWorkload

#: client options of every benchmarked metadata read-path configuration.
#: ``write_through_cache`` is pinned off: this suite isolates the *read*
#: path, so the write phase must not pre-warm the caches (the write-pipeline
#: suite measures that effect separately).
MODES: Dict[str, Dict[str, bool]] = {
    "batched": {"enable_metadata_cache": False, "write_through_cache": False},
    "cached-batched": {"enable_metadata_cache": True,
                       "write_through_cache": False},
}


def run_metadata_path_point(settings, config, *, mode: str):
    """Run the overlapped write → repeated read workload in one client mode;
    returns the artifact row and the bytes every read returned."""
    if mode not in MODES:
        raise BenchmarkError(f"unknown mode {mode!r}; choose from {sorted(MODES)}")
    wall_started = time.perf_counter()
    workload = OverlapStressWorkload(
        num_clients=settings.num_clients,
        regions_per_client=settings.regions_per_client,
        region_size=settings.region_size,
        overlap_fraction=settings.overlap_fraction,
    )
    cluster, clients, blob_id, drive = start_clients(
        settings, config, "perf", workload.file_size, **MODES[mode])

    # write phase: every client writes its overlapped vector concurrently
    def write_rank(rank):
        yield from clients[rank].vwrite_and_wait(
            blob_id, list(workload.client_pairs(rank)))

    drive("write", write_rank)

    # read phase: every client re-reads its regions from the latest snapshot
    read_results: Dict[Tuple[int, int], List[bytes]] = {}

    def read_rank(rank):
        access = [(offset, len(payload))
                  for offset, payload in workload.client_pairs(rank)]
        for repeat in range(settings.read_repeats):
            pieces = yield from clients[rank].vread(blob_id, access)
            read_results[(rank, repeat)] = pieces

    read_sim_started = cluster.sim.now
    drive("read", read_rank)
    sim_elapsed = cluster.sim.now - read_sim_started

    cache_hits, cache_misses = cache_totals(clients)
    reads = settings.num_clients * settings.read_repeats
    metadata_rpcs = sum(client.metadata_read_rpcs for client in clients)
    row = {
        "mode": mode,
        "clients": settings.num_clients,
        "reads": reads,
        "lookups": sum(client.tiers.lookups for client in clients),
        "metadata_rpcs": metadata_rpcs,
        "rpcs_per_read": per(metadata_rpcs, reads),
        "nodes_fetched": sum(client.metadata_nodes_fetched for client in clients),
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "cache_hit_rate": per(cache_hits, cache_hits + cache_misses),
        "sim_elapsed_s": sim_elapsed,
        "wall_clock_s": time.perf_counter() - wall_started,
        "network_model": config.network_model,
    }
    return row, {"read_digest": tuple(b"".join(read_results[key])
                                      for key in sorted(read_results))}


# ----------------------------------------------------------------------
# region-algebra microbenchmark (pure wall clock)
# ----------------------------------------------------------------------
def run_region_algebra_microbench(num_regions: int = 400,
                                  rounds: int = 30,
                                  seed: int = 0) -> Dict[str, object]:
    """Time subtract/union/intersection over pseudo-random fragmented runs.

    Deterministic (seeded LCG offsets) so successive PRs can compare the
    wall-clock column of ``BENCH_metadata.json`` like-for-like.
    """
    state = seed or 1
    def next_value(bound):
        nonlocal state
        state = (state * 1103515245 + 12345) % (1 << 31)
        return state % bound

    span = num_regions * 64
    a = RegionList([Region(next_value(span), 1 + next_value(48))
                    for _ in range(num_regions)])
    b = RegionList([Region(next_value(span), 1 + next_value(48))
                    for _ in range(num_regions)])

    started = time.perf_counter()
    checksum = 0
    for _ in range(rounds):
        # fresh instances so normalization is re-done each round (the memo
        # would otherwise hide the cost being measured)
        left = RegionList(a.regions)
        right = RegionList(b.regions)
        checksum += left.subtract(right).covered_bytes()
        checksum += left.union(right).covered_bytes()
        checksum += left.intersection(right).covered_bytes()
    elapsed = time.perf_counter() - started
    return {
        "mode": "region-algebra",
        "regions": num_regions,
        "rounds": rounds,
        "ops": rounds * 3,
        "wall_clock_s": elapsed,
        "wall_clock_us_per_op": elapsed / (rounds * 3) * 1e6,
        "checksum": checksum,
    }
