"""Result records and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

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

    @property
    def per_client_mib(self) -> float:
        """Per-client share of the aggregated throughput (MiB/s)."""
        return self.throughput_mib / max(1, self.num_clients)


def per(count: float, operations: int) -> float:
    """``count`` per operation: the one normalization behind every
    RPCs-per-read, RPCs-per-write and hit-rate column (a zero denominator
    only occurs with a zero count, which stays 0.0)."""
    return count / max(1, operations)


def reduction(baseline: Mapping[str, object], row: Mapping[str, object],
              column: str) -> float:
    """How many times lower ``row[column]`` is than the baseline row's: the
    headline ratio of every perf suite (RPCs saved per read or write)."""
    if row[column] <= 0:
        return float("inf")
    return baseline[column] / row[column]


def speedup(ours: ThroughputSample, baseline: ThroughputSample) -> float:
    """Throughput ratio of our approach over the baseline (paper's headline)."""
    base = baseline.throughput
    if base <= 0:
        return float("inf")
    return ours.throughput / base


def scaling_efficiency(samples: List[ThroughputSample]) -> Dict[int, float]:
    """Throughput relative to the single-client point, per client count."""
    if not samples:
        return {}
    reference = min(samples, key=lambda sample: sample.num_clients)
    return {sample.num_clients: sample.throughput / reference.throughput
            for sample in samples}
