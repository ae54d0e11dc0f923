"""Simulation-clock-native observability: spans, metrics, link telemetry.

All pieces are driven by the *simulation* clock (never wall time, so
every artifact is byte-stable across runs and usable as replay evidence):

* :mod:`repro.obs.trace` — causal spans threaded through the stack
  (``File.write_at_all`` → collective phases → commit →
  commit-engine stages → per-shard RPC → network link transfer),
  exportable as Chrome trace-event JSON (:mod:`repro.obs.export`).
* :mod:`repro.obs.registry` — a central :class:`MetricsRegistry`
  (counters, gauges, latency digests) behind stable dotted names;
  :mod:`repro.obs.views` absorbs the stack's scattered stats surfaces
  into it and re-asserts their partition identities.
* :mod:`repro.obs.linktel` — per-link utilization / queueing timelines
  sampled on the ``"queued"`` network model's link events.
* :mod:`repro.obs.digest` — deterministic fixed-log-bucket latency
  histograms (p50/p95/p99/max) tapped from RPC round-trips, link queue
  delays and File-layer operations.
* :mod:`repro.obs.critpath` — span-DAG critical-path extraction with
  exact per-layer time attribution.
* :mod:`repro.obs.diff` — exact cross-run artifact comparison that names
  every key that moved (``python -m repro.obs diff``).

A run has one record, its span trace: ``python -m repro.bench trace``
writes it as Chrome trace JSON together with the critical-path report.
Tracing and digests are **zero-cost when disabled**: every call site
guards on a plain attribute (``if ctx is not None`` / ``if digests is
not None``), and the default :class:`~repro.cluster.config.ClusterConfig`
leaves them off.
"""

from repro.obs.critpath import (LAYERS, SpanDag, critical_path,
                                layer_breakdown, operation_report)
from repro.obs.digest import DigestTaps, LatencyDigest, digest_columns
from repro.obs.linktel import LinkTelemetry
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, TraceContext, Tracer

__all__ = [
    "DigestTaps",
    "LAYERS",
    "LatencyDigest",
    "LinkTelemetry",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanDag",
    "TraceContext",
    "Tracer",
    "critical_path",
    "digest_columns",
    "layer_breakdown",
    "operation_report",
]


class Observability:
    """Per-cluster holder of tracer, registry, telemetry and digests.

    Created by :class:`~repro.cluster.cluster.Cluster` from the
    observability knobs on :class:`~repro.cluster.config.ClusterConfig`;
    the registry always exists (metrics views are pull-based and cost
    nothing until collected), while the tracer, link telemetry and digest
    taps only materialize when enabled — disabled runs hold ``None``,
    which is what every instrumented call site guards on.
    """

    def __init__(self, sim, tracing: bool = False,
                 network_model: str = "bottleneck",
                 latency_digests: bool = False):
        self.sim = sim
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=lambda: sim.now) if tracing else None
        # only the queued model has links whose queues a sample can show,
        # and only a traced run asks for them
        self.link_telemetry = LinkTelemetry(sim) \
            if tracing and network_model == "queued" else None
        self.digests = DigestTaps(self.registry) if latency_digests else None

    @property
    def tracing(self) -> bool:
        return self.tracer is not None
