"""What the paper's comparison rests on: EXP1b, ABL1-ABL3 and FUT1.

Each experiment varies one thing about EXP1's job (8 clients writing 8
overlapping 64 KiB regions each); all of them are points of the ``ablations``
entry of ``repro.bench.suites.SUITES``, run once per session and recorded in
``BENCH_ablations.json`` (``python -m repro.bench run ablations`` prints the
tables).

* **EXP1b** — the non-overlapping control.  Related work [9] (Sehrish et al.)
  avoids locking when a conflict-detection pass proves the concurrent
  accesses disjoint, at the cost of the detection itself.
* **ABL1** — design principle 2: striping the BLOB over many providers with a
  round-robin allocation spreads the write workload.
* **ABL2** — locking granularity on the baseline: ``posix-locking`` locks the
  covering extent (including bytes nobody touches), ``posix-listlock`` the
  accessed ranges only, ``conflict-detect`` nothing when the collective
  access is disjoint, ``versioning`` never.  All three locking variants pay
  the same protocol — one lock request, one bulk transfer and one release per
  OST and access — so the rows differ only in what the lock covers, i.e. in
  who has to wait for whom.
* **ABL3** — the cost of versioning itself: per-write metadata
  (copy-on-write tree nodes) and a serialized (but tiny) publication step at
  the version manager, swept over regions per vectored write and an
  artificial per-snapshot publication cost.
* **FUT1** — the conclusion's producer/consumer scenario: on the versioning
  backend consumers read published snapshots and never synchronize with
  producers; on the locking backend they take shared covering locks and
  stall them.
"""

import pytest

from benchmarks.common import REPO_ROOT, curves_by_backend
from repro.bench.suites import run_suite


@pytest.fixture(scope="module")
def suite():
    return run_suite("ablations", out_dir=REPO_ROOT)


def rows(suite, experiment):
    return [point for point in suite.points.values()
            if point["experiment"] == experiment]


def test_exp1b_nonoverlapping(suite):
    curves = curves_by_backend(rows(suite, "EXP1b"))
    assert all(row["overlap"] == 0.0 for row in rows(suite, "EXP1b"))
    # without overlaps the conflict-detection optimization avoids the
    # covering-extent serialization, so it must beat plain locking...
    for clients in curves["conflict-detect"]:
        if clients >= 4:
            assert curves["conflict-detect"][clients] > \
                curves["posix-locking"][clients]
    # ...and the versioning backend still needs no locks nor detection
    for clients, value in curves["versioning"].items():
        if clients >= 4:
            assert value >= curves["posix-locking"][clients]
    assert any(clients >= 4 for clients in curves["versioning"])


def test_abl1_striping(suite):
    by_providers = {row["providers"]: row["throughput_mib_s"]
                    for row in rows(suite, "ABL1")}
    # striping helps: 8 providers must clearly beat a single provider
    assert by_providers[8] > by_providers[1] * 1.5
    # throughput is monotone (within a small tolerance) in provider count
    counts = sorted(by_providers)
    for smaller, larger in zip(counts, counts[1:]):
        assert by_providers[larger] >= by_providers[smaller] * 0.9
    # round-robin keeps the providers balanced
    assert all(row["load_imbalance"] < 1.5 for row in rows(suite, "ABL1"))


def test_abl2_lock_granularity(suite):
    def value(backend, overlap):
        return suite.points[f"ABL2:{backend}:o{overlap}"]["throughput_mib_s"]

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


def test_abl3_metadata_overhead(suite):
    def point(regions, cost_ms):
        return suite.points[f"ABL3:r{regions}:pc{cost_ms}"]

    # more regions per write -> more metadata nodes written
    assert point(64, 0)["metadata_nodes"] > point(8, 0)["metadata_nodes"] \
        > point(1, 0)["metadata_nodes"]
    # a millisecond-scale publication cost must not collapse throughput
    # (the publication step is tiny compared to the data path)
    for regions in (1, 8, 64):
        assert point(regions, 1)["publish_cost_ms"] == 1.0
        assert point(regions, 1)["throughput_mib_s"] \
            > point(regions, 0)["throughput_mib_s"] * 0.5


def test_fut1_producer_consumer(suite):
    versioning = suite.points["FUT1:versioning"]
    locking = suite.points["FUT1:posix-locking"]
    # producers are not slowed down by concurrent readers on the versioning
    # backend, while the locking baseline serializes the two groups
    assert versioning["producer_mib_s"] > locking["producer_mib_s"]
    # consumers see published snapshots without waiting on writer locks
    assert versioning["consumer_read_latency_s"] < \
        locking["consumer_read_latency_s"]
