"""The two kinds of run: untraced (end-to-end metrics) and traced (per-layer).

Load comes from one host process and one thread.  An untraced run repeats
the job for a fixed wall-clock budget; the traced run is two more passes
over the same inputs, both taken from outside the program: a host pass
under ``cProfile`` with obs tracing off, and a sim pass with obs tracing on.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import json
import math
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.cluster import ClusterConfig
from repro.obs.critpath import LAYERS as CRITPATH_LAYERS, operation_report
from repro.obs.export import dump_chrome_trace
from repro.obs.views import collect_all

from perfbench import REPO_ROOT
from perfbench.layers import LAYERS, bucket_profile
from perfbench.metrics import BY_NAME, END_TO_END, PAPER_BAND, PER_LAYER
from perfbench.workloads import OPERATION_SPANS, WORKLOADS, JobRun

#: fresh interpreters timed for ``setup_s``
SETUP_PROBES = 5
#: what :func:`calibrate` takes on this sandbox when nothing else runs
CALIB_NOMINAL_S = 0.048
READ_CALLS = ("read_at", "read_at_all", "vread")


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------
def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def calibrate() -> float:
    """Host seconds of a fixed miniature event loop (heap of small objects,
    generators, a dict of byte strings) that shares no code with the repo.

    The sandbox runs in slow phases that stretch the job and this probe
    alike, so the probe interleaved with the repetitions is what
    :func:`calibrated` scales host time by.
    """
    started = time.perf_counter()
    store: Dict[Tuple[int, int], bytes] = {}

    def actor(index: int):
        turn = 0
        while True:
            turn += 1
            yield (index * 7 % 13) * 1e-3
            store[(index, turn % 50)] = bytes(16)

    heap = []
    for index in range(64):
        process = actor(index)
        heapq.heappush(heap, (next(process), index, process))
    for _ in range(60_000):
        now, index, process = heapq.heappop(heap)
        heapq.heappush(heap, (now + process.send(None), index, process))
    return time.perf_counter() - started


def calibrated(samples: List[float], calib_samples: List[float]) -> float:
    """Host seconds at the sandbox's unloaded speed.

    Fastest sample over the lower quartile of the interleaved probes, times
    the probe's nominal duration.  The sandbox runs in slow phases that
    stretch job and probe alike; a 50 ms probe finds a quiet gap more easily
    than a job of seconds, so its lower quartile, not its minimum, is the
    fair counterpart of the fastest repetition.  Over four sets of ten runs
    per workload (quartile distance over median of ten runs; the README has
    the table) this figure spread 1.5-15%, the fastest raw repetition 2-65%,
    the median of raw repetitions 3-78%.
    """
    return min(samples) / quartiles(calib_samples)[0] * CALIB_NOMINAL_S


def environment() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def measure_setup(workload: str, seed: int, smoke: bool,
                  calib_samples: List[float]) -> List[float]:
    """Wall seconds of fresh interpreters doing everything a run does
    before its first repetition, a calibration probe before each."""
    command = [sys.executable, "-m", "perfbench", "setup", workload,
               "--seed", str(seed)] + (["--smoke"] if smoke else [])
    samples = []
    for _ in range(1 if smoke else SETUP_PROBES):
        calib_samples.append(calibrate())
        started = time.perf_counter()
        subprocess.run(command, cwd=REPO_ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
    return samples


def repetition(workload, inputs, config: Optional[ClusterConfig] = None,
               ) -> Tuple[JobRun, float]:
    """One repetition on a fresh cluster and the host seconds it took."""
    gc.collect()
    started = time.perf_counter()
    run = workload.run(inputs, config)
    return run, time.perf_counter() - started


def sim_metrics(run: JobRun) -> Dict[str, float]:
    latencies = sorted(seconds for _, seconds in run.ops)
    return {
        "sim_write_mib_s": run.mib_per_s("write"),
        "sim_read_mib_s": run.mib_per_s("read"),
        "sim_op_p50_ms": percentile(latencies, 0.50) * 1e3,
        "sim_op_p90_ms": percentile(latencies, 0.90) * 1e3,
    }


def _record(mode: str, workload: str, seed: int, seconds: float, smoke: bool,
            values: Dict[str, float], attempted: int, problems: List[str],
            raised: int, detail: Dict[str, object]) -> Dict[str, object]:
    failed = raised + len(problems)
    return {
        "perfbench": 1, "mode": mode, "workload": workload, "seed": seed,
        "seconds": seconds, "smoke": smoke, **environment(),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_ops_share": failed / attempted,
        "metrics": {name: {"value": value, "unit": BY_NAME[name].unit}
                    for name, value in values.items()},
        "problems": problems[:20],
        "detail": detail,
    }


# ----------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(name: str, seed: int, seconds: float,
               smoke: bool = False) -> Dict[str, object]:
    workload = WORKLOADS[name]
    calib_samples: List[float] = []
    setup_samples = measure_setup(name, seed, smoke, calib_samples)
    inputs = workload.inputs(seed, smoke)

    first, _ = repetition(workload, inputs)  # warm-up: lazy set-up finishes
    reference = sim_metrics(first)
    attempted, raised = len(first.ops) + first.raised, first.raised
    del first

    host_samples = []
    last = None
    deadline = time.perf_counter() + seconds
    while len(host_samples) < 3 or time.perf_counter() < deadline:
        calib_samples += [calibrate(), calibrate()]
        last = None  # one cluster alive at a time
        last, host_s = repetition(workload, inputs)
        host_samples.append(host_s)
        attempted += len(last.ops) + last.raised
        raised += last.raised
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the last repetition is checked byte for byte, after the memory
    # reading so that the checker's buffers do not count as the job's
    verdict = workload.verify(inputs, last)
    problems = list(verdict.mismatches)
    sim = sim_metrics(last)
    if sim != reference:
        problems.append("simulated metrics differ between repetitions of "
                        f"one seed: {reference} vs {sim}")
    attempted += verdict.checks

    q1, median, q3 = quartiles(host_samples)
    values = {"setup_s": calibrated(setup_samples, calib_samples),
              "host_s": calibrated(host_samples, calib_samples),
              "host_peak_rss_mib": peak_rss_mib, **sim}
    return _record("run", name, seed, seconds, smoke,
                   {metric.name: values[metric.name] for metric in END_TO_END},
                   attempted, problems, raised, {
        "k": len(host_samples), "host_s_samples": host_samples,
        "host_s_raw_median": median, "host_s_raw_q1": q1, "host_s_raw_q3": q3,
        "setup_s_samples": setup_samples, "calib_s_samples": calib_samples,
        "op_samples": len(last.ops), "inputs": inputs.fingerprint(),
    })


# ----------------------------------------------------------------------
# the traced run: per-layer metrics
# ----------------------------------------------------------------------
def per_layer(name: str, seed: int, seconds: float, smoke: bool = False,
              spans_path: Optional[str] = None) -> Dict[str, object]:
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, smoke)
    values = {metric.name: 0.0 for metric in PER_LAYER}

    repetition(workload, inputs)  # warm-up
    untraced, builds, calibs = [], [], []
    deadline = time.perf_counter() + seconds / 3
    while len(untraced) < 2 or time.perf_counter() < deadline:
        calibs.append(calibrate())
        run, host_s = repetition(workload, inputs)
        untraced.append(host_s)
        builds.append(run.build_host_s)
        del run
    base = min(untraced)
    values["host.build_s"] = min(builds)
    values["host.calib_s"] = min(calibs)

    # host pass: cProfile from outside, obs tracing off
    profile = cProfile.Profile()
    gc.collect()
    started = time.perf_counter()
    profile.enable()
    profiled = workload.run(inputs)
    profile.disable()
    values["host.profile_overhead_x"] = (time.perf_counter() - started) / base
    reference = sim_metrics(profiled)
    del profiled
    for layer, bucket in bucket_profile(pstats.Stats(profile).stats).items():
        values[f"host.{layer}.self_s"] = bucket["self_s"]
        values[f"host.{layer}.calls"] = bucket["calls"]
    values["host.calls"] = sum(values[f"host.{layer}.calls"]
                               for layer in LAYERS)

    # sim pass: obs tracing and latency digests on; timed twice, like the
    # untraced base it is compared with, and the faster one counts
    config = ClusterConfig(tracing=True, latency_digests=True)
    _, first_s = repetition(workload, inputs, config)
    traced, traced_s = repetition(workload, inputs, config)
    values["obs.tracing_overhead_pct"] = \
        (min(first_s, traced_s) - base) / base * 100
    problems = []
    if sim_metrics(traced) != reference:
        problems.append("tracing changed the simulated metrics")
    critpath_total = _read_sim_pass(workload, traced, values)
    if spans_path is not None:
        dump_chrome_trace(traced.cluster.obs.tracer, spans_path)
    verdict = workload.verify(inputs, traced)
    problems += verdict.mismatches
    attempted = len(traced.ops) + traced.raised + verdict.checks

    if workload.twin is not None:
        twin = WORKLOADS[workload.twin]
        other, _ = repetition(twin, twin.inputs(seed, smoke))
        ours, theirs = traced.mib_per_s("write"), other.mib_per_s("write")
        speedup = ours / theirs if workload.backend == "versioning" \
            else theirs / ours
        values["fidelity.speedup_vs_locking"] = speedup
        values["fidelity.in_paper_band"] = float(
            PAPER_BAND[0] <= speedup <= PAPER_BAND[1])

    return _record("trace", name, seed, seconds, smoke, values, attempted,
                   problems, traced.raised, {
        "k": len(untraced), "untraced_host_s": base,
        "operations_sim_s": critpath_total, "spans": spans_path,
        "inputs": inputs.fingerprint(),
    })


def _read_sim_pass(workload, run: JobRun, values: Dict[str, float]) -> float:
    """Fill the simulated-side per-layer values from the obs read side;
    returns the measured operations' summed end-to-end simulated time."""
    cluster, deployment = run.cluster, run.deployment
    versioning = workload.backend == "versioning"
    registry = collect_all(
        cluster.obs.registry, cluster=cluster,
        deployment=deployment if versioning else None,
        clients=run.clients, comms=run.comms,
        drivers=run.drivers if versioning else ())
    registry.assert_identities()
    snapshot = registry.snapshot()

    def take(metric: str, source: Optional[str] = None, scale: float = 1.0):
        values[metric] = snapshot.get(source or metric, 0) * scale

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    report = operation_report(cluster.obs.tracer, OPERATION_SPANS)
    total = 0.0
    for entry in report["operations"].values():
        total += entry["end_to_end_s"]
        for layer in CRITPATH_LAYERS:
            values[f"critpath.{layer}_s"] += entry["layers"][layer]

    values["simengine.events"] = cluster.sim.processed_events
    for metric in ("net.bytes", "net.messages", "rpc.calls", "disk.bytes",
                   "disk.operations", "mpi.bytes_moved",
                   "mpi.collectives_completed"):
        take(metric)
    take("rpc.p95_ms", "rpc.latency.all.p95", 1e3)

    written = run.phases["write"][0]
    stats = deployment.stats()
    values["storage.bytes_per_user_byte"] = stats["stored_bytes"] / written
    if not versioning:
        values["lock.granted"] = stats["locks_granted"]
        values["lock.queued"] = stats["locks_queued"]
        values["lock.wait_s"] = stats["lock_wait_time"]
        return total

    for metric in ("version.tickets_assigned", "version.snapshots_published",
                   "storage.chunks", "storage.load_imbalance",
                   "coalescer.batches", "coalescer.coalescing_factor",
                   "cache.peer.probe_rpcs", "cache.shared.evictions",
                   "collective.write.bytes_sent",
                   "collective.write.stripes_committed",
                   "collective.read.bytes_sent",
                   "collective.read.version_rpcs_elided"):
        take(metric)
    take("metadata.put_rpcs", "metadata.server.put_rpcs")
    take("metadata.nodes", "metadata.server.nodes")
    take("metadata.read_rpcs", "metadata.server.read_rpcs")
    take("metadata.lookups", "metadata.cache.lookups")
    take("metadata.fetched_lookups", "metadata.client.fetched_lookups")
    take("metadata.coalesced_fetches", "metadata.client.coalesced_fetches")
    reads = sum(1 for call, _ in run.ops if call in READ_CALLS)
    values["metadata.rpcs_per_read"] = ratio(
        snapshot.get("metadata.client.read_rpcs", 0), reads)
    values["cache.private.hit_ratio"] = ratio(
        snapshot.get("metadata.cache.hits", 0),
        snapshot.get("metadata.cache.lookups", 0))
    values["cache.shared.hit_ratio"] = ratio(
        snapshot.get("cache.shared.hits", 0),
        snapshot.get("cache.shared.lookups", 0))
    peer_hits = snapshot.get("cache.peer.client_hits", 0)
    values["cache.peer.hit_ratio"] = ratio(
        peer_hits, peer_hits + snapshot.get("cache.peer.rejections", 0)
        + snapshot.get("cache.peer.probe_misses", 0))
    return total


# ----------------------------------------------------------------------
def record_path(out_dir: str, smoke: bool, filename: str) -> str:
    """Where a run's file goes; smoke runs get a directory of their own."""
    directory = os.path.join(out_dir, "smoke") if smoke else out_dir
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, filename)


def write_record(record: Dict[str, object], out_dir: str) -> str:
    """Store one run's JSON record."""
    path = record_path(out_dir, record["smoke"],
                       "{mode}-{workload}-seed{seed}-{stamp}.json".format(
                           stamp=time.time_ns(), **record))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
