"""Metadata read-path microbenchmark: RPC counts and cache hit rate.

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
phase occupied.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bench.harness import start_clients
from repro.bench.metrics import metadata_lookups, per
from repro.errors import BenchmarkError
from repro.obs.registry import MetricsRegistry
from repro.obs.views import collect_all
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

    metrics = collect_all(MetricsRegistry(), clients=clients)
    metrics.assert_identities()
    cache_hits = metrics.get("metadata.cache.hits", 0)
    cache_misses = metrics.get("metadata.cache.misses", 0)
    reads = settings.num_clients * settings.read_repeats
    metadata_rpcs = metrics.get("metadata.client.read_rpcs")
    row = {
        "mode": mode,
        "clients": settings.num_clients,
        "reads": reads,
        "lookups": metadata_lookups(metrics),
        "metadata_rpcs": metadata_rpcs,
        "rpcs_per_read": per(metadata_rpcs, reads),
        "nodes_fetched": metrics.get("metadata.client.nodes_fetched"),
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "cache_hit_rate": per(cache_hits, cache_hits + cache_misses),
        "sim_elapsed_s": sim_elapsed,
        "network_model": config.network_model,
    }
    return row, {"read_digest": tuple(b"".join(read_results[key])
                                      for key in sorted(read_results))}

