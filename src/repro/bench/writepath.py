"""Write-pipeline microbenchmark: control RPCs, coalescing, warm read-back.

The read-path suite (:mod:`repro.bench.metadata_path`) measures how cheap
*resolving* a snapshot got; this suite measures how cheap *producing* one
got.  A queued-small-writes workload (checkpoint-style trains of small
vectored writes per client, see
:class:`~repro.workloads.queued_writes.QueuedWritesWorkload`) runs through
the write-path configurations of :data:`WRITE_MODES` (explained in the
``writepath`` entry of :data:`repro.bench.suites.SUITES`).

After the writes, every client reads its span back several times; the first
read measures the write-through-population effect (warm cache with zero
read-side fetches for self-written nodes), the repeats measure the steady
state.  All modes must return byte-identical data — client spans are
disjoint, so the contents are independent of cross-client commit order.

``control_rpcs`` counts the write-side control-plane round-trips
(``allocate``, ``assign_ticket``, ``complete``, publication waits) and
``metadata_put_rpcs`` the per-shard ``put_nodes`` round-trips; both are
normalized per *logical* write — the unit the application issued, however
many of them one snapshot coalesced.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bench.harness import start_clients
from repro.bench.metrics import per, write_columns
from repro.errors import BenchmarkError
from repro.obs.registry import MetricsRegistry
from repro.obs.views import collect_all
from repro.workloads.queued_writes import QueuedWritesWorkload

#: how every benchmarked write-path mode commits a client's train of writes,
#: and whether the writer write-through-populates its cache
WRITE_MODES: Dict[str, Dict[str, object]] = {
    "baseline": {"commits": "blocking", "write_through_cache": False},
    "pipelined": {"commits": "deferred", "write_through_cache": True},
    "pipelined-coalesced": {"commits": "coalesced",
                            "write_through_cache": True},
}


def run_write_path_point(settings, config, *, mode: str, **client_options):
    """Run the queued-writes → read-back workload in one write-path mode;
    returns the artifact row and the bytes every read returned.

    ``client_options`` (the capacity sweep passes
    ``metadata_cache_capacity``, including an explicit ``None`` for
    forced-unbounded) override what the clients would otherwise take from
    ``config`` like production clients do.
    """
    if mode not in WRITE_MODES:
        raise BenchmarkError(f"unknown mode {mode!r}; choose from {sorted(WRITE_MODES)}")
    spec = WRITE_MODES[mode]
    workload = QueuedWritesWorkload(
        num_clients=settings.num_clients,
        writes_per_client=settings.writes_per_client,
        regions_per_write=settings.regions_per_write,
        region_size=settings.region_size,
        hole_size=settings.hole_size,
    )
    cluster, clients, blob_id, drive = start_clients(
        settings, config, "wp", workload.file_size,
        write_through_cache=spec["write_through_cache"], **client_options)

    # write phase: every client issues its train of small writes; its last
    # committed snapshot version is kept for the read-your-writes read-back
    own_version: Dict[int, int] = {}

    def write_rank(rank):
        client = clients[rank]
        if spec["commits"] == "coalesced":
            # queue the whole train, commit it as one snapshot at the barrier
            for pairs in workload.client_write_vectors(rank):
                yield from client.vwrite_queued(blob_id, pairs)
            receipts = yield from client.vbarrier(blob_id)
            own_version[rank] = receipts[-1].version
        elif spec["commits"] == "deferred":
            # one snapshot per write, completions pipelined across writes
            for pairs in workload.client_write_vectors(rank):
                yield from client.vwrite_queued(blob_id, pairs)
                receipts = yield from client.vflush(blob_id)
                own_version[rank] = receipts[-1].version
            yield from client.vbarrier(blob_id)
        else:
            # fully blocking: every write waits for its own publication
            for pairs in workload.client_write_vectors(rank):
                receipt = yield from client.vwrite_and_wait(blob_id, pairs)
                own_version[rank] = receipt.version

    write_sim_started = cluster.sim.now
    drive("write", write_rank)
    sim_write_elapsed = cluster.sim.now - write_sim_started

    # read-back phase: first read measures write-through warmth, the repeats
    # the steady state; all reads return the client's whole span
    read_results: Dict[Tuple[int, int], List[bytes]] = {}

    def read_round(repeat):
        def read_rank(rank):
            # read-your-writes: each client reads its span at its own last
            # committed version (spans are disjoint, so the bytes match
            # every mode's final contents regardless of cross-client ticket
            # order)
            pieces = yield from clients[rank].vread(
                blob_id, workload.read_pairs(rank), version=own_version[rank])
            read_results[(rank, repeat)] = pieces
        drive(f"read{repeat}.", read_rank)

    def cache_counts(metrics: MetricsRegistry) -> Tuple[int, int]:
        return (metrics.get("metadata.cache.hits", 0),
                metrics.get("metadata.cache.misses", 0))

    read_sim_started = cluster.sim.now
    hits_before, misses_before = cache_counts(
        collect_all(MetricsRegistry(), clients=clients))
    read_round(0)
    hits_after, misses_after = cache_counts(
        collect_all(MetricsRegistry(), clients=clients))
    first_hits = hits_after - hits_before
    first_lookups = first_hits + (misses_after - misses_before)
    for repeat in range(1, settings.read_repeats):
        read_round(repeat)
    sim_read_elapsed = cluster.sim.now - read_sim_started

    final = collect_all(MetricsRegistry(), clients=clients)
    hits, misses = cache_counts(final)
    row = {
        "mode": mode,
        "clients": settings.num_clients,
        **write_columns(final),
        "cache_primed_nodes": final.get("metadata.client.cache_primed_nodes"),
        "first_read_cache_hit_rate": per(first_hits, first_lookups),
        "read_cache_hit_rate": per(hits, hits + misses),
        "cache_evictions": final.get("metadata.cache.evictions", 0),
        "sim_write_s": sim_write_elapsed,
        "sim_read_s": sim_read_elapsed,
        "network_model": config.network_model,
    }
    return row, {"read_digest": tuple(b"".join(read_results[key])
                                      for key in sorted(read_results))}


#: the columns a capacity-sweep row keeps of its point
SWEEP_COLUMNS = ("first_read_cache_hit_rate", "read_cache_hit_rate",
                 "cache_evictions", "cache_primed_nodes")


def run_cache_capacity_sweep(settings, config, unbounded: Dict[str, object],
                             ) -> List[Dict[str, object]]:
    """Hit rate / evictions vs LRU capacity on the pipelined-coalesced path.

    One row per capacity in ``settings.cache_capacities`` (``None`` =
    unbounded), each measured on a fresh deployment of the same workload;
    the suite's own pipelined-coalesced point is the ``unbounded`` row.
    """
    rows: List[Dict[str, object]] = []
    for capacity in settings.cache_capacities:
        row = unbounded
        if capacity is not None:
            row, _read_back = run_write_path_point(
                settings, config, mode="pipelined-coalesced",
                metadata_cache_capacity=capacity)
        rows.append({
            "mode": "cache-sweep",
            "capacity": capacity if capacity is not None else "unbounded",
            **{column: row[column] for column in SWEEP_COLUMNS},
        })
    return rows
