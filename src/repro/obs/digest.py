"""Deterministic fixed-log-bucket latency histograms.

A :class:`LatencyDigest` is an HDR-style log-linear histogram over
**integer nanoseconds**: each recorded value is quantized to an integer
bucket index computed from its bit length plus ``SUB_BITS`` linear
sub-bucket bits, so the worst-case quantization error is bounded at
``1/2^SUB_BITS`` of the value (25% with the default two sub-bucket bits)
while the bucket count stays tiny.  Everything is pure integer
arithmetic on values the simulation clock produced — no floating-point
log, no sampling, no reservoir — so the digest is:

* **insertion-order independent**: the same multiset of values produces
  the identical bucket table however it arrives (the property test
  pins this), and
* **byte-stable across runs**: two runs of the same seed serialize to
  the same bytes, making percentile columns diffable artifacts.

Percentiles report the *inclusive upper bound* of the bucket holding the
requested rank (a deterministic over-estimate within the quantization
bound); ``max`` is tracked exactly and caps every percentile.

:class:`DigestTaps` is the thin write-side facade the instrumented call
sites hold (``cluster.obs.digests``) — ``None`` when latency digests are
disabled, which is the single attribute test the hot paths pay.
"""

from __future__ import annotations

import math
from typing import Dict

__all__ = ["LatencyDigest", "DigestTaps", "SUB_BITS"]

#: linear sub-bucket bits per power of two (2 -> 25% worst-case error)
SUB_BITS = 2

_SUB_COUNT = 1 << SUB_BITS
_SUB_MASK = _SUB_COUNT - 1
#: values below this are their own (exact) bucket
_LINEAR_LIMIT = 1 << (SUB_BITS + 1)

_NS = 1_000_000_000


def bucket_index(ns: int) -> int:
    """Monotone log-linear bucket index of a non-negative nanosecond value."""
    if ns < _LINEAR_LIMIT:
        return ns
    exp = ns.bit_length() - 1
    return (((exp - SUB_BITS + 1) << SUB_BITS)
            + ((ns >> (exp - SUB_BITS)) & _SUB_MASK))


def bucket_bound(index: int) -> int:
    """Inclusive upper nanosecond bound of bucket ``index``."""
    if index < _LINEAR_LIMIT:
        return index
    exp = (index >> SUB_BITS) + SUB_BITS - 1
    width = 1 << (exp - SUB_BITS)
    lower = (1 << exp) + (index & _SUB_MASK) * width
    return lower + width - 1


class LatencyDigest:
    """Fixed-log-bucket histogram of simulated latencies (seconds in,
    integer nanoseconds inside)."""

    __slots__ = ("name", "count", "max_ns", "sum_ns", "_buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        #: exact maximum (never bucketed)
        self.max_ns = 0
        self.sum_ns = 0
        self._buckets: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def record(self, seconds: float) -> None:
        ns = round(seconds * _NS)
        if ns < 0:
            ns = 0
        index = bucket_index(ns)
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1
        self.count += 1
        self.sum_ns += ns
        if ns > self.max_ns:
            self.max_ns = ns

    @property
    def value(self) -> int:
        """Sample count (what generic registry reads see)."""
        return self.count

    # ------------------------------------------------------------------
    def buckets(self) -> Dict[int, int]:
        """``bucket index -> count`` in ascending index order."""
        return {index: self._buckets[index]
                for index in sorted(self._buckets)}

    def percentile(self, q: float) -> float:
        """Upper bound (seconds) of the bucket holding rank ``ceil(q*n)``,
        clamped to the exact maximum (the top bucket's edge lies above it)."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                return min(bucket_bound(index), self.max_ns) / _NS
        return self.max_ns / _NS  # pragma: no cover - rank <= count

    def mean(self) -> float:
        return self.sum_ns / self.count / _NS if self.count else 0.0

    def quantiles(self) -> Dict[str, float]:
        """The artifact columns: count, p50/p95/p99 (bucketed), exact max."""
        return {
            "count": self.count,
            "p50": round(self.percentile(0.50), 9),
            "p95": round(self.percentile(0.95), 9),
            "p99": round(self.percentile(0.99), 9),
            "max": round(self.max_ns / _NS, 9),
        }


class DigestTaps:
    """Write-side facade over the registry's latency digests.

    Instrumented sites (RPC transport, network reservations, File ops)
    hold this object — or ``None`` when digests are disabled — and call
    one method per sample.  All digests live in the owning
    :class:`~repro.obs.registry.MetricsRegistry` under stable dotted
    names, so they appear in every ``snapshot()`` and bench artifact.
    """

    __slots__ = ("registry",)

    def __init__(self, registry):
        self.registry = registry

    def rpc(self, method: str, seconds: float) -> None:
        """One completed RPC round-trip (request to response landed)."""
        registry = self.registry
        registry.digest("rpc.latency.all").record(seconds)
        registry.digest("rpc.latency." + method).record(seconds)

    def link(self, link_name: str, queue_delay: float) -> None:
        """One link reservation's FIFO queueing delay, aggregated per link
        class (``egress``/``ingress``/``uplink``/``downlink``/``nic``) —
        per-link timelines stay in :class:`~repro.obs.linktel.LinkTelemetry`."""
        kind = link_name.partition(":")[0]
        registry = self.registry
        registry.digest("net.queue_delay.all").record(queue_delay)
        registry.digest("net.queue_delay." + kind).record(queue_delay)

    def op(self, name: str, seconds: float) -> None:
        """One completed File-layer operation (``file.write_at_all``...)."""
        self.registry.digest("op.latency." + name).record(seconds)


def digest_columns(registry, name: str = "rpc.latency.all",
                   prefix: str = "rpc_latency") -> Dict[str, float]:
    """Flat ``{prefix}_p50/_p95/_p99/_max/_count`` columns for bench rows
    (zeros when the digest never collected — keeps row shapes stable)."""
    metric = registry._metrics.get(name) if registry is not None else None
    if not isinstance(metric, LatencyDigest):
        quantiles: Dict[str, float] = {"count": 0, "p50": 0.0, "p95": 0.0,
                                       "p99": 0.0, "max": 0.0}
    else:
        quantiles = metric.quantiles()
    return {f"{prefix}_{key}": value for key, value in quantiles.items()}
