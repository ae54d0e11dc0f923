"""Shared helpers for the benchmark suite.

Every file here runs one entry of ``repro.bench.suites.SUITES`` once, from a
module-scoped fixture, and asserts its acceptance shape on ``suite.points``:
``test_perf_*.py`` the repo's own perf suites, ``test_paper.py`` and
``test_ablations.py`` the paper's tables/figures.  Absolute throughput values
are in simulated MiB/s — only the comparative shapes are meaningful, which
is what the assertions check.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable

#: where the suites write their ``BENCH_*.json``
REPO_ROOT = Path(__file__).resolve().parents[1]


def expected_scan_bytes(workload) -> bytes:
    """What a shared-scan point's ``read_digest`` must equal, whatever the
    cache configuration (``repro.bench.scan``)."""
    return b"".join(workload.expected_pieces(client, round_index)
                    for client in range(workload.num_clients)
                    for round_index in range(workload.rounds))


def curves_by_backend(rows: Iterable[Dict[str, object]],
                      value: str = "throughput_mib_s") -> Dict[str, Dict[int, float]]:
    """Pivot experiment rows into per-backend curves keyed by client count."""
    curves: Dict[str, Dict[int, float]] = {}
    for row in rows:
        curves.setdefault(str(row["backend"]), {})[int(row["clients"])] = float(row[value])
    return curves


def assert_versioning_wins(curves: Dict[str, Dict[int, float]],
                           baseline: str = "posix-locking",
                           min_factor: float = 1.5,
                           min_clients: int = 2) -> None:
    """The paper's qualitative claim: versioning wins under concurrency."""
    versioning = curves["versioning"]
    locking = curves[baseline]
    for clients, value in versioning.items():
        if clients >= min_clients:
            assert value > locking[clients] * min_factor, (
                f"versioning ({value:.1f}) not {min_factor}x above {baseline} "
                f"({locking[clients]:.1f}) at {clients} clients")


def assert_scales_up(curve: Dict[int, float], factor: float = 1.5) -> None:
    """Aggregated throughput grows with client count (up to saturation)."""
    clients = sorted(curve)
    assert curve[clients[-1]] > curve[clients[0]] * factor, (
        f"no scaling: {curve}")


def assert_roughly_flat_or_declining(curve: Dict[int, float],
                                     tolerance: float = 1.6) -> None:
    """The serialized baseline does not scale with client count."""
    clients = sorted(curve)
    assert curve[clients[-1]] < curve[clients[0]] * tolerance, (
        f"baseline unexpectedly scales: {curve}")
