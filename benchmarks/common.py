"""Shared settings and helpers for the benchmark suite.

The benchmarks regenerate the paper's tables/figures on a *quick* scale so
that ``pytest benchmarks/ --benchmark-only`` finishes in minutes; the
experiment functions accept larger :class:`ExperimentSettings` for the
full-size runs recorded in EXPERIMENTS.md.  Absolute throughput values are in
simulated MiB/s — only the comparative shapes are meaningful, which is what
the assertions check.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Sequence

from repro.bench.experiments import ExperimentSettings
from repro.cluster import ClusterConfig

#: how many hotspots ``profiled`` prints (sorted by cumulative time)
PROFILE_TOP = 25


@contextmanager
def profiled(title: str = "", top: int = PROFILE_TOP, stream=None):
    """Run the enclosed block under cProfile; print the top hotspots.

    Used by the ``--profile`` pytest option (see ``conftest.py``), which
    wraps every benchmark — fixtures included — so the module-scoped suite
    runs show up in the first test of each file.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        out = stream or sys.stdout
        if title:
            print(f"\n--- profile: {title} (top {top} by cumulative) ---",
                  file=out)
        stats = pstats.Stats(profiler, stream=out)
        stats.strip_dirs().sort_stats("cumulative").print_stats(top)


def artifact_target(path: Path, smoke: bool) -> Path:
    """Where a suite's artifact lives: ``path`` itself for a full-size run,
    the git-ignored sibling ``<stem>.smoke.json`` for a smoke run."""
    return path.with_name(f"{path.stem}.smoke{path.suffix}") if smoke else path


def write_artifact(path: Path, artifact: Dict[str, object]) -> Path:
    """Write a ``BENCH_*.json`` artifact; returns the path written.

    The committed files at the repository root are full-size (``smoke:
    false``) measurements, so a ``REPRO_BENCH_SMOKE=1`` run must never land
    on them: smoke output goes to :func:`artifact_target`'s sibling path,
    and a smoke artifact refuses to replace any file holding ``smoke:
    false`` (a full-size artifact copied onto the smoke path, say).
    """
    smoke = bool(artifact["smoke"])
    target = artifact_target(path, smoke)
    if smoke and target.exists() \
            and not json.loads(target.read_text()).get("smoke", False):
        raise RuntimeError(
            f"refusing to replace the full-size artifact {target} "
            "with a smoke run")
    target.write_text(json.dumps(artifact, indent=2) + "\n")
    return target


def quick_settings(client_counts: Sequence[int] = (1, 2, 4, 8)) -> ExperimentSettings:
    """Benchmark-suite settings: small but large enough to show the shapes."""
    return ExperimentSettings(
        client_counts=tuple(client_counts),
        num_storage_nodes=8,
        stripe_unit=64 * 1024,
        num_metadata_providers=2,
        regions_per_client=8,
        region_size=64 * 1024,
        overlap_fraction=0.5,
        tile_elements_x=64,
        tile_elements_y=64,
        element_size=32,
        tile_overlap=8,
        config=ClusterConfig(),
    )


def curves_by_backend(rows: List[Dict[str, object]],
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
