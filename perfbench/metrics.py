"""The benchmark's declared names: metrics, units, directions, bounds.

``BENCHMARK.json`` at the repo root is generated from this module
(``python -m perfbench contract``) and a test keeps the two equal, so the
names every later issue uses are declared once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from perfbench.layers import LAYERS

#: how long one run measures, seconds (``run_seconds`` of the contract)
RUN_SECONDS = 14

#: the paper's reported advantage of versioning over locking
PAPER_BAND = (3.5, 10.0)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may get worse;
    #: ``None`` for per-layer metrics, which carry no bound
    bound: Optional[float] = None
    #: repeats exactly for one seed (simulated time, counts); host seconds
    #: and the ratios built on them do not
    exact: bool = False


#: definitions, clock by clock, are in ``perfbench/README.md``
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("host_s", "s", "lower", 0.25),
    Metric("host_peak_rss_mib", "MiB", "lower", 0.1),
    Metric("sim_write_mib_s", "MiB/s", "higher", 0.01, exact=True),
    Metric("sim_read_mib_s", "MiB/s", "higher", 0.01, exact=True),
    # a percentile can sit at the gap between two clusters of latencies,
    # where the think-time noise flips it by up to 0.8% (tile_io, 7 seeds
    # in 30); throughput never moved more than 0.04%
    Metric("sim_op_p50_ms", "ms", "lower", 0.03, exact=True),
    Metric("sim_op_p90_ms", "ms", "lower", 0.03, exact=True),
)


def _per_layer() -> Tuple[Metric, ...]:
    rows: List[Metric] = []
    for layer in LAYERS:
        rows.append(Metric(f"host.{layer}.self_s", "s", "lower"))
        rows.append(Metric(f"host.{layer}.calls", "count", "lower",
                           exact=True))
    rows += [
        Metric("host.calls", "count", "lower", exact=True),
        Metric("host.build_s", "s", "lower"),
        Metric("host.calib_s", "s", "lower"),
    ]
    rows += [Metric(f"critpath.{layer}_s", "s", "lower", exact=True)
             for layer in ("client_compute", "deferred_complete_overlap",
                           "rpc_queueing", "link_transfer", "shard_service",
                           "coalesce_park")]

    def exact(name: str, unit: str = "count", better: str = "lower"):
        rows.append(Metric(name, unit, better, exact=True))

    # cluster
    exact("simengine.events")
    exact("net.bytes", "B")
    exact("net.messages")
    exact("rpc.calls")
    exact("rpc.p95_ms", "ms")
    exact("disk.bytes", "B")
    exact("disk.operations")
    # write path
    exact("version.tickets_assigned")
    exact("version.snapshots_published")
    exact("metadata.put_rpcs")
    exact("metadata.nodes")
    exact("storage.chunks")
    exact("storage.bytes_per_user_byte", "ratio")
    exact("storage.load_imbalance", "ratio")
    exact("coalescer.batches")
    exact("coalescer.coalescing_factor", "ratio", "higher")
    # read path
    exact("metadata.read_rpcs")
    exact("metadata.rpcs_per_read", "ratio")
    exact("metadata.lookups")
    exact("metadata.fetched_lookups")
    exact("metadata.coalesced_fetches", better="higher")
    exact("cache.private.hit_ratio", "ratio", "higher")
    exact("cache.shared.hit_ratio", "ratio", "higher")
    exact("cache.peer.hit_ratio", "ratio", "higher")
    exact("cache.peer.probe_rpcs")
    exact("cache.shared.evictions")
    # collective
    exact("collective.write.bytes_sent", "B")
    exact("collective.write.stripes_committed")
    exact("collective.read.bytes_sent", "B")
    exact("collective.read.version_rpcs_elided", better="higher")
    exact("mpi.bytes_moved", "B")
    exact("mpi.collectives_completed")
    # locking baseline
    exact("lock.granted")
    exact("lock.queued")
    exact("lock.wait_s", "s")
    rows += [
        Metric("obs.tracing_overhead_pct", "%", "lower"),
        Metric("host.profile_overhead_x", "ratio", "lower"),
        # not a directed claim: "lower" only because today's model sits
        # above the paper's band (see the fidelity caveat in the README)
        Metric("fidelity.speedup_vs_locking", "ratio", "lower", exact=True),
        Metric("fidelity.in_paper_band", "count", "higher", exact=True),
    ]
    return tuple(rows)


PER_LAYER: Tuple[Metric, ...] = _per_layer()

BY_NAME: Dict[str, Metric] = {metric.name: metric
                              for metric in END_TO_END + PER_LAYER}


def contract(workloads) -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "perfbench", "bench"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": workload.name, "why": workload.why}
                      for workload in workloads],
        "end_to_end": [{"name": metric.name, "unit": metric.unit,
                        "better": metric.better, "bound": metric.bound}
                       for metric in END_TO_END],
        "per_layer": [{"name": metric.name, "unit": metric.unit,
                       "better": metric.better} for metric in PER_LAYER],
    }
