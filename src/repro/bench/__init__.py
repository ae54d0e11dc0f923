"""Benchmark harness: experiment environments, runners, metrics and reports.

The harness regenerates every result of the paper's evaluation section (and
the ablations listed in ``benchmarks/README.md``).  It is organized as:

* :mod:`repro.bench.environment` — build a simulated cluster plus one storage
  backend (versioning or Lustre-like) and the matching ADIO driver factory;
* :mod:`repro.bench.harness` — run one MPI-I/O job (every rank writes its
  vector in atomic mode) and measure the aggregated throughput;
* :mod:`repro.bench.experiments` — the experiment definitions (EXP1, EXP1b,
  EXP2, EXP3, ABL1-3, FUT1): parameter sweeps returning result tables;
* :mod:`repro.bench.metrics` / :mod:`repro.bench.reporting` — result records
  and text tables matching the rows/series the paper reports;
* :mod:`repro.bench.suites` — the perf suites as one table and the one
  runner that writes their ``BENCH_<suite>.json`` artifacts
  (``BENCH_paper.json`` is the experiments at the paper's client counts).
"""

from repro.bench.environment import ExperimentEnvironment, build_environment
from repro.bench.harness import RunResult, run_atomic_write_job, verify_job_atomicity
from repro.bench.metrics import ThroughputSample, speedup
from repro.bench.reporting import format_table

__all__ = [
    "ExperimentEnvironment",
    "build_environment",
    "RunResult",
    "run_atomic_write_job",
    "verify_job_atomicity",
    "ThroughputSample",
    "speedup",
    "format_table",
]
