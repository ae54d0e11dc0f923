"""Central metrics registry: counters, gauges, latency digests.

One flat namespace of dotted metric names (``metadata.client.read_rpcs``,
``cache.shared.hits``, ``net.link.bytes``): the one surface every counter
of the stack is read through.  The registry is *pull-based*: the hot
paths keep their plain integer counters, and :mod:`repro.obs.views`
materializes them into a registry at collection time — so the registry
costs nothing while the simulation runs.

The collectors' consistency checks (the metadata lookup partition and
friends) are reported on the same object and raised by
:meth:`MetricsRegistry.assert_identities`.  Who asks: the ``simcore``
suite's collective-I/O rows, the scan and metadata read-path suites,
``BlobSeerDeployment.stats()`` and ``perfbench`` call it on every run;
the fuzzer's ``stats_partition`` checker reads the same list through
:meth:`MetricsRegistry.check_identities`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.obs.digest import LatencyDigest

__all__ = ["Counter", "Gauge", "LatencyDigest", "MetricsRegistry",
           "IdentityViolation"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class IdentityViolation(AssertionError):
    """A reported consistency check does not hold on collected values."""


class MetricsRegistry:
    """Flat registry of named instruments plus reported check outcomes."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        #: check label -> the problems it found (see :meth:`report`)
        self._reported: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name)
            self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        metric = self._get(name, Counter)
        if not isinstance(metric, Counter):
            raise TypeError(f"{name!r} is a {type(metric).__name__}, "
                            "not a Counter")
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._get(name, Gauge)
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name!r} is a {type(metric).__name__}, "
                            "not a Gauge")
        return metric

    def digest(self, name: str) -> LatencyDigest:
        metric = self._get(name, LatencyDigest)
        if not isinstance(metric, LatencyDigest):
            raise TypeError(f"{name!r} is a {type(metric).__name__}, "
                            "not a LatencyDigest")
        return metric

    # convenience write forms
    def add(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str, default=None):
        """Current value of a metric, or ``default`` when absent."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        return metric.value

    # ------------------------------------------------------------------
    def report(self, label: str, problems: Sequence[str]) -> None:
        """Record what a consistency check over the values being collected
        found (nothing, when it held).

        Re-reporting a label replaces its previous outcome, so collectors
        may report on every collection pass without piling up duplicates.
        """
        self._reported[label] = list(problems)

    def check_identities(self) -> List[str]:
        """One description per problem the reported checks found (empty
        when all held)."""
        return [f"{label}: {problem}"
                for label, problems in self._reported.items()
                for problem in problems]

    def assert_identities(self) -> None:
        problems = self.check_identities()
        if problems:
            raise IdentityViolation("; ".join(problems))

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """All collected values as one flat, deterministically ordered
        dict — counters and gauges under their name, latency digests
        expanded to ``.count`` / ``.p50`` / ``.p95`` / ``.p99`` / ``.max``."""
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, LatencyDigest):
                for key, value in metric.quantiles().items():
                    out[f"{name}.{key}"] = value
            else:
                out[name] = metric.value
        return out
