"""The perf suites as one table, and the one runner that turns an entry into
its ``BENCH_<name>.json`` artifact.

How a suite is described, run and written is decided here and nowhere else:
:data:`SUITES` maps a suite's name (its artifact's file stem) to a
:class:`Suite`, and :func:`run_suite` walks the plan on one default
:class:`~repro.cluster.ClusterConfig`, builds each row once, assembles
``{suite, smoke, settings, <headline>, rows}`` and hands it to
:func:`~repro.bench.artifacts.write_artifact`.  ``python -m repro.bench run
[SUITE…|all] [--smoke]`` and every file under ``benchmarks/`` end here — the
paper's experiments and ablations are the ``paper`` and ``ablations``
entries, not a runner of their own; the measured jobs themselves live in the
modules imported below.

Every published number is taken under the ``"bottleneck"`` network model —
the paper's one-switch Grid'5000 cluster, and what ``perfbench`` runs.  The
``"queued"`` model shapes timing, never bytes or RPC counts
(``tests/cluster/test_network_model_identity.py`` pins that per job shape);
only simcore's own plan selects it, per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.bench.artifacts import write_artifact
from repro.bench.collective import (run_collective_point,
                                    run_collective_read_point)
from repro.bench.experiments import (PAPER_BAND, run_ablation_point,
                                     run_paper_point)
from repro.bench.metadata_path import MODES, run_metadata_path_point
from repro.bench.metrics import per, reduction
from repro.bench.scan import run_scan_point
from repro.bench.simcore import (run_simcore_point, simcore_headline,
                                 simcore_plan)
from repro.bench.writepath import (WRITE_MODES, run_cache_capacity_sweep,
                                   run_write_path_point)
from repro.cluster import ClusterConfig

Plan = List[Tuple[str, Dict[str, object]]]


@dataclass(frozen=True)
class Suite:
    """One entry of :data:`SUITES`: everything that tells two suites apart."""

    title: str  #: the artifact's ``suite`` field
    about: str  #: what is measured and what the labels mean
    #: full-size settings (the artifact's ``settings`` block) and what a
    #: smoke run replaces in them: same shape, less work
    settings: Mapping[str, object]
    smoke: Mapping[str, object]
    #: settings -> ordered ``(label, point kwargs)``
    plan: Callable[[SimpleNamespace], Plan]
    #: ``point(settings, config, **kwargs)`` -> ``(row, extras)``: the
    #: artifact row and what no artifact records (read-back bytes, ...)
    point: Callable[..., Tuple[Dict[str, object], Dict[str, object]]]
    #: the row's columns where two suites share one point function
    columns: Optional[Tuple[str, ...]] = None
    label_column: Optional[str] = None  #: row column recording the label
    #: the headline ``(artifact key, column, rule)``: ``rule(label, values,
    #: settings)`` names a point's entry as ``(entry key, baseline label,
    #: extra fields or None)``, or returns ``None`` for no entry
    reduction: Optional[Tuple[str, str, Callable]] = None
    #: ``extras(settings, points)`` -> more top-level artifact keys
    extras: Optional[Callable[..., Dict[str, object]]] = None
    unrecorded: Tuple[str, ...] = ()  #: settings the artifact never recorded


# ----------------------------------------------------------------------
# plans and baseline rules
# ----------------------------------------------------------------------
def _mode_plan(modes) -> Callable[[SimpleNamespace], Plan]:
    return lambda settings: [(mode, {"mode": mode}) for mode in modes]


def _vs_mode(baseline: str):
    return lambda label, values, settings: (label, baseline, None)


def _aggregation_plan(counts: str, kwarg: str, tag: str):
    """Per rank count: the independent baseline, then one collective point
    per distinct aggregator count after clamping to the rank count."""
    def plan(settings) -> Plan:
        points: Plan = []
        for ranks in settings.rank_counts:
            points.append((f"N{ranks}:independent",
                           {"num_ranks": ranks, kwarg: None}))
            for count in dict.fromkeys(min(count, ranks)
                                       for count in getattr(settings, counts)):
                points.append((f"N{ranks}:collective-{tag}{count}",
                               {"num_ranks": ranks, kwarg: count}))
        return points
    return plan


def _vs_independent(count_column: str):
    """Collective points against their rank count's independent baseline;
    the ideal is the aggregation factor ``N/A``."""
    def rule(label, values, settings):
        if values[count_column]:
            return (label, f"N{values['ranks']}:independent",
                    {"ideal": values["ranks"] / values[count_column]})
    return rule


def _sharedcache_plan(settings) -> Plan:
    clients = {"prefix": "sc", "num_clients": settings.num_clients}
    plan: Plan = [("identical:private", dict(clients, mode="private",
                                             shared=False)),
                  ("identical:shared", dict(clients, mode="shared"))]
    plan += [(f"streaming@{capacity}", dict(
        clients, mode=f"shared@{capacity}-only", pattern="streaming",
        capacity=capacity, private_cache=False))
        for capacity in settings.capacity_sweep]
    return plan


def _vs_private(label, values, settings):
    if label == "identical:shared":
        return label, "identical:private", {"ideal": settings.ranks_per_node}


def _paper_plan(settings) -> Plan:
    return [(f"{experiment}:c{clients}",
             {"experiment": experiment, "clients": clients})
            for experiment in ("EXP1", "EXP2")
            for clients in settings.client_counts]


def _ablations_plan(settings) -> Plan:
    def job(**varied):
        """EXP1's job on the versioning backend, one thing varied."""
        return {"backend": "versioning", "clients": settings.num_clients,
                **varied}
    plan: Plan = [(f"EXP1b:{backend}:c{clients}",
                   job(experiment="EXP1b", backend=backend, clients=clients,
                       overlap=0.0))
                  for clients in settings.exp1b_client_counts
                  for backend in ("versioning", "posix-locking",
                                  "conflict-detect")]
    plan += [(f"ABL1:p{providers}", job(experiment="ABL1", providers=providers))
             for providers in settings.provider_counts]
    plan += [(f"ABL2:{backend}:o{overlap}",
              job(experiment="ABL2", backend=backend, overlap=overlap))
             for overlap in settings.overlaps
             for backend in ("posix-locking", "posix-listlock",
                             "conflict-detect", "versioning")]
    # ABL3 splits one region's bytes into more pieces, 4 KiB at the least
    plan += [(f"ABL3:r{regions}:pc{cost * 1000:g}",
              job(experiment="ABL3", regions_per_client=regions,
                  region_size=max(4096, settings.region_size // regions),
                  publish_cost=cost))
             for regions in settings.regions_per_client_values
             for cost in settings.publish_costs]
    plan += [(f"FUT1:{backend}", {"experiment": "FUT1", "backend": backend})
             for backend in ("versioning", "posix-locking")]
    return plan


def _metadata_headline(settings, points) -> Dict[str, object]:
    """Each mode's lookups per metadata RPC — a per-node read path pays one
    ``get_node`` per lookup."""
    return {"rpc_reduction_vs_per_node": {
        mode: per(values["lookups"], values["metadata_rpcs"])
        for mode, values in points.items()}}


def _capacity_sweep(settings, points) -> Dict[str, object]:
    return {"cache_capacity_sweep": run_cache_capacity_sweep(
        settings, ClusterConfig(),
        unbounded=points["pipelined-coalesced"])}


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
#: the paper's deployment and EXP1 access shape, and EXP2's per-process
#: tile: written here once, for the ``paper`` and ``ablations`` entries
PAPER_SHAPE = dict(num_storage_nodes=8, stripe_unit=64 * 1024,
                   num_metadata_providers=2, regions_per_client=8,
                   region_size=64 * 1024, overlap_fraction=0.5)
TILE_SHAPE = dict(tile_elements_x=64, tile_elements_y=64, element_size=32,
                  tile_overlap=8)

SUITES: Dict[str, Suite] = {
    "metadata": Suite(
        title="metadata-read-path",
        about="""Segment-tree read hot path.  batched = no cache, one
        ``get_nodes`` RPC per shard per walk round; cached-batched = plus the
        client-side immutable-node cache (the production path; repeat reads
        are warm).  Headline: each row's ``lookups`` per ``metadata_rpcs`` —
        how many times fewer round-trips than one ``get_node`` per lookup.""",
        settings=dict(num_clients=8, regions_per_client=8,
                      region_size=16 * 1024, overlap_fraction=0.5,
                      read_repeats=5, num_providers=4,
                      num_metadata_providers=2, chunk_size=4 * 1024),
        smoke=dict(num_clients=4, regions_per_client=4, region_size=4096,
                   read_repeats=3, num_providers=2, chunk_size=2048),
        unrecorded=("num_providers",),
        plan=_mode_plan(MODES),
        point=run_metadata_path_point,
        extras=_metadata_headline,
    ),
    "writepath": Suite(
        title="write-pipeline",
        about="""Write-side control plane.  baseline = every write blocks
        until it is published (its ``complete``, then a publication wait)
        and writes nothing through to its cache; pipelined = one snapshot
        per write, but completions are deferred (one barrier joins them) and
        the writer write-through-populates its cache; pipelined-coalesced =
        additionally one merged snapshot batch per client.  Headline:
        control RPCs per logical write vs baseline.  An LRU capacity sweep of
        the coalesced path (``None`` = unbounded) rides along as
        ``cache_capacity_sweep``.""",
        settings=dict(num_clients=6, writes_per_client=6, regions_per_write=4,
                      region_size=8 * 1024, hole_size=1024, read_repeats=3,
                      num_providers=4, num_metadata_providers=2,
                      chunk_size=16 * 1024,
                      cache_capacities=(16, 64, 256, None)),
        smoke=dict(num_clients=3, writes_per_client=3, regions_per_write=2,
                   region_size=2048, hole_size=512, read_repeats=2,
                   num_providers=2, chunk_size=4096,
                   cache_capacities=(8, 32, None)),
        unrecorded=("cache_capacities",),
        plan=_mode_plan(WRITE_MODES),
        point=run_write_path_point,
        reduction=("control_rpc_reduction_vs_baseline",
                   "control_rpcs_per_write", _vs_mode("baseline")),
        extras=_capacity_sweep,
    ),
    "collective": Suite(
        title="collective-buffering",
        about="""Collective checkpoint dumps.  N<ranks>:independent = the
        per-rank coalesced baseline: every round's ``sync`` commits one
        snapshot batch per rank (N tickets, N metadata builds);
        N<ranks>:collective-a<A> = two-phase buffering: the ranks exchange
        blocks over the interconnect and the round commits as A stripe
        batches of contiguous runs, non-aggregators never touching the
        control plane.  Headline:
        control RPCs per logical write vs independent, next to the ideal
        N/A.""",
        settings=dict(rank_counts=(4, 8), aggregator_counts=(1, 2, 4),
                      rounds=3, blocks_per_rank=4, block_size=8 * 1024,
                      num_providers=4, num_metadata_providers=2,
                      chunk_size=16 * 1024),
        smoke=dict(rank_counts=(4,), aggregator_counts=(1, 2), rounds=2,
                   blocks_per_rank=2, block_size=2048, num_providers=2,
                   chunk_size=4096),
        plan=_aggregation_plan("aggregator_counts", "num_aggregators", "a"),
        point=run_collective_point,
        reduction=("control_rpc_reduction_vs_independent",
                   "control_rpcs_per_write", _vs_independent("aggregators")),
    ),
    "collective_read": Suite(
        title="collective-read",
        about="""Collective scans of a sparse dump.  N<ranks>:independent =
        every rank pays one ``latest`` plus its own batched tree walk per
        round; N<ranks>:collective-r<R> = the group pins one snapshot (one
        ``latest`` per round, none once a hint is planted) and R resolvers
        walk the union extent once, scattering pieces and hole descriptors;
        non-resolvers never touch the control plane.  Headline: metadata RPCs
        (tree walk + ``latest``) per logical read vs independent, next to the
        ideal N/R.""",
        settings=dict(rank_counts=(4, 8), resolver_counts=(1, 2, 4), rounds=3,
                      blocks_per_rank=4, block_size=8 * 1024, halo_blocks=1,
                      hole_every=4, num_providers=4, num_metadata_providers=2,
                      chunk_size=16 * 1024),
        smoke=dict(rank_counts=(4,), resolver_counts=(1, 2), rounds=2,
                   blocks_per_rank=2, block_size=2048, num_providers=2,
                   chunk_size=4096),
        plan=_aggregation_plan("resolver_counts", "num_resolvers", "r"),
        point=run_collective_read_point,
        reduction=("metadata_rpc_reduction_vs_independent",
                   "metadata_rpcs_per_read", _vs_independent("resolvers")),
    ),
    "sharedcache": Suite(
        title="sharedcache",
        about="""Scans by cache configuration.  identical:private =
        per-client caches only (co-located clients re-fetch identical
        leaves); identical:shared = plus the node's shared tier (only a
        node's first toucher fetches: RPCs per read approach
        1/ranks_per_node); streaming@<capacity> = streaming under a small
        shared capacity, shared tier only, where the pool's plain LRU
        decides what stays resident.  sim_read_mean_ms is the mean latency of one
        scan call; sim_read_s is mostly the clients' start stagger.
        Headline: metadata RPCs per read vs identical:private, next to the
        ideal ranks_per_node.""",
        settings=dict(num_clients=8, ranks_per_node=4, rounds=4,
                      blocks_per_round=8, block_size=8 * 1024,
                      num_providers=4, num_metadata_providers=2,
                      chunk_size=8 * 1024, capacity_sweep=(24, 48)),
        smoke=dict(num_clients=4, ranks_per_node=2, rounds=3,
                   blocks_per_round=4, block_size=4096, num_providers=2,
                   chunk_size=4096, capacity_sweep=(16,)),
        plan=_sharedcache_plan,
        point=run_scan_point,
        columns=("mode", "pattern", "capacity", "clients", "ranks_per_node",
                 "rounds", "logical_reads", "metadata_rpcs", "rpcs_per_read",
                 "latest_rpcs", "lookups", "private_hits", "shared_hits",
                 "fetched_lookups", "shared_hit_rate", "shared_evictions",
                 "shared_rejections", "sim_read_s", "sim_read_mean_ms",
                 "network_model"),
        reduction=("metadata_rpc_reduction_vs_private", "rpcs_per_read",
                   _vs_private),
    ),
    "simcore": Suite(
        title="simcore",
        about="""The simulator end to end.  headline = the interleaved
        collective checkpoint; -traced / -queued = the same point with
        tracing on, under the queued network; scale-<ranks> = queued points
        up to the 4096-rank completion shape.  Rows pick their own network
        model.  Headline: the tracing / network-model invariants.""",
        settings=dict(num_ranks=64, blocks_per_rank=256, block_size=1024,
                      read_rounds=3, num_aggregators=16, num_providers=8,
                      num_metadata_providers=2, chunk_size=16 * 1024, seed=0,
                      scale_points=((512, 16, 4096, 1),),
                      smoke_point=(4096, 1, 4096, 0)),
        smoke=dict(num_ranks=16, blocks_per_rank=16, read_rounds=1,
                   num_aggregators=4, num_providers=4,
                   scale_points=((64, 4, 2048, 1),),
                   smoke_point=(128, 1, 2048, 0)),
        plan=simcore_plan,
        point=run_simcore_point,
        label_column="label",
        extras=lambda settings, points: simcore_headline(points),
    ),
    "paper": Suite(
        title="paper",
        about="""The paper's comparison at its client counts: EXP1
        (overlapped writes) and EXP2 (MPI-tile-IO), versioning vs Lustre-like
        locking, one row per (experiment, clients) with the speedup and
        whether it falls in the paper's band — recorded, not asserted.""",
        settings=dict(client_counts=(1, 2, 4, 8, 16, 32, 64), **PAPER_SHAPE,
                      **TILE_SHAPE),
        smoke=dict(client_counts=(1, 2, 4, 8)),
        plan=_paper_plan,
        point=run_paper_point,
        extras=lambda settings, points: {"paper_band": list(PAPER_BAND)},
    ),
    "ablations": Suite(
        title="ablations",
        about="""What the paper's comparison rests on, one thing varied at a
        time about EXP1's job.  EXP1b:<backend>:c<clients> = the disjoint
        control (overlap 0), where conflict detection may skip the locks;
        ABL1:p<providers> = striping over more data providers;
        ABL2:<backend>:o<overlap> = what the lock covers (covering extent,
        accessed ranges, nothing when disjoint) vs versioning;
        ABL3:r<regions>:pc<ms> = versioning's own cost: metadata nodes per
        vectored write and an artificial per-snapshot publication cost;
        FUT1:<backend> = producers dumping while consumers read.  Rows keep
        each experiment's own columns; shapes are asserted by
        ``benchmarks/test_ablations.py``, no headline is derived.""",
        settings=dict(**PAPER_SHAPE, num_clients=8,
                      exp1b_client_counts=(2, 4, 8),
                      provider_counts=(1, 2, 4, 8), overlaps=(0.0, 0.5),
                      regions_per_client_values=(1, 8, 64),
                      publish_costs=(0.0, 1e-3), num_producers=4,
                      num_consumers=2, iterations=3),
        smoke=dict(exp1b_client_counts=(4,), provider_counts=(1, 8),
                   iterations=1),
        plan=_ablations_plan,
        point=run_ablation_point,
    ),
}


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
@dataclass
class SuiteRun:
    """What :func:`run_suite` hands back to its caller."""

    smoke: bool
    settings: SimpleNamespace
    #: label -> everything the point measured: its row plus its extras
    points: Dict[str, Dict[str, object]]
    artifact: Dict[str, object]
    path: Path  #: where the artifact was written


def run_suite(name: str, smoke: bool = False,
              out_dir: Path = Path(".")) -> SuiteRun:
    """Run every point of one suite and write ``BENCH_<name>.json``.

    A smoke run lands on ``BENCH_<name>.smoke.json`` (see
    :mod:`repro.bench.artifacts`).
    """
    suite = SUITES[name]
    settings = SimpleNamespace(**{**suite.settings,
                                  **(suite.smoke if smoke else {})})
    config = ClusterConfig()
    points: Dict[str, Dict[str, object]] = {}
    rows: List[Dict[str, object]] = []
    for label, kwargs in suite.plan(settings):
        row, extras = suite.point(settings, config, **kwargs)
        points[label] = {**row, **extras}
        if suite.columns:
            row = {column: row[column] for column in suite.columns}
        if suite.label_column:
            row[suite.label_column] = label
        rows.append(row)

    artifact: Dict[str, object] = {
        "suite": suite.title,
        "smoke": smoke,
        "settings": {key: value for key, value in vars(settings).items()
                     if key not in suite.unrecorded},
    }
    if suite.reduction:
        key, column, rule = suite.reduction
        artifact[key] = entries = {}
        for label, values in points.items():
            named = rule(label, values, settings)
            if named is None:
                continue
            entry, baseline, extra = named
            ratio = reduction(points[baseline], values, column)
            entries[entry] = ratio if extra is None \
                else {"reduction": ratio, **extra}
    if suite.extras:
        artifact.update(suite.extras(settings, points))
    artifact["rows"] = rows
    path = write_artifact(Path(out_dir) / f"BENCH_{name}.json", artifact)
    return SuiteRun(smoke=smoke, settings=settings, points=points,
                    artifact=artifact, path=path)
