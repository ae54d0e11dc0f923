"""The measured job of the shared-cache suite: independent scans.

A :class:`~repro.workloads.shared_scan.SharedScanWorkload` — independent
clients scanning a dump that a seeder published ahead of them — runs with
``ranks_per_node`` clients packed on each compute node, in one cache
configuration per point; ``repro.bench.suites`` picks the columns the
suite records.

Clients start staggered (``stagger_s`` of simulated time apart, as
independent analysis processes do): a node's first scan publishes into the
shared tier before its co-tenants look up, which is what the tier exploits —
perfectly simultaneous cold misses each fetch on their own, exactly like a
real shared cache without request coalescing.

``latest`` is resolved once per client up front (reported separately), so
the per-read columns isolate the leaf walk.  The seeder publishes with
``shared_metadata_cache=False``, so the scan clients are the shared tier's
only participants.  ``server_read_rpcs`` counts **server-side** handler
invocations (``deployment.stats()``), the check on the clients' own
``metadata_rpcs``.

Every point checks its clients' metadata tier chains — each lookup
answered by exactly one of the private cache, the node pool and the shards,
every pool's count matched by its clients'
(:mod:`repro.blobseer.metadata.tiers`) — and returns the scans' bytes,
which the perf suites compare across every mode, node count and network
model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.harness import deploy, drive_processes, seed_blob
from repro.bench.metrics import per
from repro.blobseer.client import BlobClient
from repro.blobseer.metadata.tiers import partition_problems, wire_problems
from repro.errors import BenchmarkError
from repro.workloads.shared_scan import SharedScanWorkload

PATH = "/dump"

#: simulated seconds between consecutive clients' scan starts
STAGGER_S = 0.05


def scan_workload(settings, num_clients: int,
                  pattern: str = "identical") -> SharedScanWorkload:
    """The scan one point of either suite runs."""
    return SharedScanWorkload(
        num_clients=num_clients,
        rounds=settings.rounds,
        blocks_per_round=settings.blocks_per_round,
        block_size=settings.block_size,
        pattern=pattern,
    )


def run_scan_point(settings, config, *, prefix: str, mode: str,
                   num_clients: int, pattern: str = "identical",
                   shared: bool = True,
                   capacity: Optional[int] = None, private_cache: bool = True,
                   stagger_s: float = STAGGER_S):
    """Run the scan once in one cache configuration at one cluster size;
    returns every measured value (each suite's entry picks its columns) and
    what no artifact records: the scans' bytes, independently counted totals.

    ``shared=False`` is the private baseline; ``private_cache=False`` drops
    the per-client tier too (the bounded-pool points, so eviction in the
    *shared* tier is what the numbers measure).

    ``sim_read_s`` runs from the scan start to the last client's finish, so
    at the default stagger it is mostly the stagger itself;
    ``sim_read_mean_ms`` is the mean simulated latency of one ``vread``
    call, the column a cache shows up in.
    """
    cluster, deployment = deploy(
        settings,
        config.copy(ranks_per_node=settings.ranks_per_node,
                    shared_metadata_cache=shared,
                    shared_cache_capacity=capacity),
        prefix)
    workload = scan_workload(settings, num_clients, pattern)

    # the dump the scans read: published once, ahead of the clients, by a
    # client outside the shared tier
    pinned = seed_blob(cluster, deployment, settings, f"{prefix}-seed", PATH,
                       workload.file_size, [(0, workload.expected_contents())],
                       shared_metadata_cache=False)
    # shard reads spent publishing don't belong to the scan being measured
    server_rpcs_seeded = deployment.stats()["metadata_read_rpcs"]

    # rank->node placement: ranks_per_node clients share each compute node
    nodes = cluster.place_ranks(f"{prefix}-rank", num_clients)
    clients = [
        BlobClient(deployment, nodes[index], name=f"{prefix}{index}",
                   enable_metadata_cache=private_cache)
        for index in range(num_clients)
    ]

    scans: Dict[Tuple[int, int], List[bytes]] = {}
    finished: List[float] = []
    latencies: List[float] = []

    def read_client(index):
        client = clients[index]
        sim = cluster.sim
        # independent processes never start in lockstep; the stagger gives
        # a node's first toucher time to publish into the shared tier
        yield sim.timeout(index * stagger_s)
        for round_index in range(workload.rounds):
            pairs = workload.read_pairs(index, round_index)
            started = sim.now
            pieces = yield from client.vread(PATH, pairs, pinned)
            latencies.append(sim.now - started)
            scans[(index, round_index)] = pieces
        finished.append(sim.now)

    read_started = cluster.sim.now
    drive_processes(
        cluster,
        [cluster.sim.process(read_client(index), name=f"{prefix}-read{index}")
         for index in range(num_clients)],
        name=f"{prefix}-driver")

    chains = [client.tiers for client in clients]
    private = [chain.private.stats for chain in chains
               if chain.private is not None]

    shared_stats = deployment.shared_cache_stats()
    logical_reads = num_clients * workload.rounds
    values = {
        "mode": mode,
        "pattern": pattern,
        "capacity": capacity,
        "ranks_per_node": settings.ranks_per_node,
        "clients": num_clients,
        "rounds": workload.rounds,
        "logical_reads": logical_reads,
        "metadata_rpcs": sum(chain.shard_stats.read_rpcs
                             for chain in chains),
        "latest_rpcs": sum(client.latest_rpcs for client in clients),
        "server_read_rpcs": (deployment.stats()["metadata_read_rpcs"]
                             - server_rpcs_seeded),
        "private_hits": sum(stats.hits for stats in private),
        "shared_hits": sum(chain.pool_stats.hits for chain in chains),
        "fetched_lookups": sum(chain.fetched_lookups for chain in chains),
        "shared_evictions": shared_stats["evictions"],
        "shared_rejections": shared_stats["unpublished_rejections"],
        "sim_read_s": max(finished) - read_started,
        "sim_read_mean_ms": 1e3 * sum(latencies) / len(latencies),
        "network_model": config.network_model,
    }
    lookups = sum(chain.lookups for chain in chains)
    values.update(
        lookups=lookups,
        rpcs_per_read=per(values["metadata_rpcs"], logical_reads),
        shared_hit_rate=per(values["shared_hits"], lookups),
    )
    # not artifact columns: the bytes and the independently counted totals
    extras = {
        "read_digest": b"".join(b"".join(scans[key]) for key in sorted(scans)),
        "per_client_rpcs": {index: chain.shard_stats.read_rpcs
                            for index, chain in enumerate(chains)},
        "private_tier_lookups": sum(stats.lookups for stats in private),
        "shared_tier_lookups": shared_stats["hits"] + shared_stats["misses"],
    }
    # the scan clients are the shared tier's only participants (the seeder
    # stays outside it), so the shared services' counts must reconcile too
    problems = partition_problems(chains) + wire_problems(chains)
    if problems:
        raise BenchmarkError("metadata tier accounting broken: "
                             + "; ".join(problems))
    return values, extras
