"""ABL2: locking granularity on the baseline file system.

The paper's related-work section contrasts covering-extent locking (lock the
smallest contiguous range covering the whole non-contiguous access, including
bytes nobody touches) with finer-grain alternatives.  This ablation compares,
on identical workloads:

* ``posix-locking``  — covering-extent locks,
* ``posix-listlock`` — locks on the accessed ranges only,
* ``conflict-detect`` — skip locks when the collective access is disjoint,
* ``versioning``     — the paper's approach (no locks at all).

All three locking variants pay the same protocol — one lock request, one bulk
transfer and one release per OST and access — so the rows differ only in what
the lock covers, i.e. in who has to wait for whom.
"""

from benchmarks.common import quick_settings
from repro.bench.experiments import run_abl2_lock_granularity
from repro.bench.reporting import format_table


def test_abl2_lock_granularity(benchmark):
    settings = quick_settings()
    rows = benchmark.pedantic(
        run_abl2_lock_granularity, args=(settings,),
        kwargs={"num_clients": 8, "overlaps": (0.0, 0.5)},
        rounds=1, iterations=1)

    print()
    print(format_table(rows, title="ABL2 — locking granularity (8 clients)"))

    def value(backend, overlap):
        return next(row["throughput_mib_s"] for row in rows
                    if row["backend"] == backend and row["overlap"] == overlap)

    # versioning wins in every configuration
    for overlap in (0.0, 0.5):
        for baseline in ("posix-locking", "posix-listlock", "conflict-detect"):
            assert value("versioning", overlap) > value(baseline, overlap)

    # with disjoint accesses the extent lock's conflicts are all false:
    # skipping the locks or narrowing them to the accessed ranges removes the
    # serialization, a multi-x gain
    assert value("conflict-detect", 0.0) > 2 * value("posix-locking", 0.0)
    assert value("posix-listlock", 0.0) > 2 * value("posix-locking", 0.0)
    # under overlap most conflicts are real: range locks still never lose to
    # the extent lock, but no locking variant comes near versioning
    assert value("posix-listlock", 0.5) >= value("posix-locking", 0.5)
    assert value("versioning", 0.5) > 3 * value("posix-listlock", 0.5)
