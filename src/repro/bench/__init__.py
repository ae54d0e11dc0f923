"""Benchmark harness: environments, measured jobs, the suite table and reports.

One runner regenerates every committed number — the paper's evaluation
section and ablations as well as the repo's own perf suites
(``benchmarks/README.md``).  It is organized as:

* :mod:`repro.bench.environment` — build a simulated cluster plus one storage
  backend (versioning or Lustre-like) and the matching ADIO driver factory;
* :mod:`repro.bench.harness` — run one MPI-I/O job (every rank writes its
  vector in atomic mode) and measure the aggregated throughput;
* :mod:`repro.bench.experiments` — the paper's experiments (EXP1, EXP1b,
  EXP2, EXP3, ABL1-3, FUT1) as suite points, one measurement each;
* :mod:`repro.bench.metrics` / :mod:`repro.bench.reporting` — result records
  and text tables matching the rows/series the paper reports;
* :mod:`repro.bench.suites` — every suite as one table (:data:`SUITES`) and
  the one runner that sweeps an entry's points and writes its
  ``BENCH_<suite>.json`` (``paper`` and ``ablations`` are the experiments).
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
