"""Per-link telemetry sampled on the queued network model's link events.

Every link reservation under an observed network appends one sample: the
reservation instant, how long the transfer will sit behind the link's FIFO
backlog, the bytes requested and the link's cumulative counters.  Sampling
happens on events the simulation already processes — no extra events, no
polling process — so enabling it never perturbs the timeline.

The samples feed three consumers: utilization / queue-depth summaries per
link (:meth:`LinkTelemetry.report`), ``net.link.*`` registry metrics
(:func:`repro.obs.views.collect_link_telemetry`), and per-link counter
tracks in the Chrome trace export (:func:`repro.obs.export.to_chrome_trace`).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

__all__ = ["LinkSample", "LinkTelemetry"]


class LinkSample(NamedTuple):
    #: simulation time the reservation was made
    ts: float
    #: seconds the transfer waits behind the link's existing backlog
    queue_delay: float
    #: bytes of this reservation
    nbytes: int
    #: cumulative link counters *after* the reservation
    bytes_transferred: int
    busy_time: float


class LinkTelemetry:
    """Collects :class:`LinkSample` timelines keyed by link name."""

    def __init__(self, sim):
        self.sim = sim
        self.samples: Dict[str, List[LinkSample]] = {}

    def record(self, link, now: float, queue_delay: float,
               nbytes: int) -> None:
        self.samples.setdefault(link.name, []).append(LinkSample(
            now, queue_delay, nbytes, link.bytes_transferred,
            link.busy_time))

    # ------------------------------------------------------------------
    def utilization(self, name: str) -> float:
        """Busy fraction of the link over the sampled window (last
        cumulative busy_time over the elapsed simulation time)."""
        samples = self.samples.get(name)
        if not samples:
            return 0.0
        elapsed = self.sim.now
        return samples[-1].busy_time / elapsed if elapsed > 0 else 0.0

    def report(self) -> Dict[str, Dict[str, float]]:
        """Deterministically ordered per-link summary."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self.samples):
            samples = self.samples[name]
            last = samples[-1]
            delays = [sample.queue_delay for sample in samples]
            out[name] = {
                "reservations": len(samples),
                "bytes": last.bytes_transferred,
                "busy_time_s": round(last.busy_time, 9),
                "utilization": round(self.utilization(name), 6),
                "max_queue_delay_s": round(max(delays), 9),
                "mean_queue_delay_s": round(sum(delays) / len(delays), 9),
            }
        return out

    def totals(self) -> Dict[str, float]:
        """Aggregates over every sampled link (``net.link.*`` metrics)."""
        report = self.report()
        return {
            "links": len(report),
            "reservations": sum(r["reservations"] for r in report.values()),
            "bytes": sum(r["bytes"] for r in report.values()),
            "max_queue_delay_s": max(
                (r["max_queue_delay_s"] for r in report.values()),
                default=0.0),
        }
