"""Result records and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.obs.registry import MetricsRegistry

MiB = 1024 * 1024


@dataclass
class ThroughputSample:
    """One measured point of a throughput-vs-clients curve."""

    backend: str
    num_clients: int
    total_bytes: int
    elapsed: float

    @property
    def throughput(self) -> float:
        """Aggregated throughput in bytes of application data per second."""
        if self.elapsed <= 0:
            return float("inf")
        return self.total_bytes / self.elapsed

    @property
    def throughput_mib(self) -> float:
        """Aggregated throughput in MiB/s (the unit the paper plots)."""
        return self.throughput / MiB


def per(count: float, operations: int) -> float:
    """``count`` per operation: the one normalization behind every
    RPCs-per-read, RPCs-per-write and hit-rate column (a zero denominator
    only occurs with a zero count, which stays 0.0)."""
    return count / max(1, operations)


def write_columns(metrics: MetricsRegistry) -> Dict[str, object]:
    """The write-side columns of a suite row, read from the clients
    collected into ``metrics``: the application's logical writes, the
    snapshots they became, and the control-plane (``allocate``, ticket,
    completion, publication waits) and per-shard ``put_nodes``
    round-trips they cost, per logical write."""
    logical_writes = metrics.get("client.logical_writes", 0)
    snapshots = metrics.get("client.writes", 0)
    control_rpcs = metrics.get("metadata.client.write_control_rpcs", 0)
    metadata_put_rpcs = metrics.get("metadata.client.put_rpcs", 0)
    return {
        "logical_writes": logical_writes,
        "snapshots": snapshots,
        "coalescing_factor": per(logical_writes, snapshots),
        "control_rpcs": control_rpcs,
        "metadata_put_rpcs": metadata_put_rpcs,
        "control_rpcs_per_write": per(control_rpcs + metadata_put_rpcs,
                                      logical_writes),
    }


def metadata_lookups(metrics: MetricsRegistry) -> int:
    """The deduplicated lookups the collected clients handed their metadata
    tier chains.  Each was answered by exactly one tier (the
    ``metadata.lookup_partition`` check), so the tiers' hits add up to
    them."""
    return (metrics.get("metadata.cache.hits", 0)
            + metrics.get("cache.shared.client_hits", 0)
            + metrics.get("metadata.client.fetched_lookups", 0))


def reduction(baseline: Mapping[str, object], row: Mapping[str, object],
              column: str) -> float:
    """How many times lower ``row[column]`` is than the baseline row's: the
    headline ratio of every perf suite (RPCs saved per read or write)."""
    if row[column] <= 0:
        return float("inf")
    return baseline[column] / row[column]
