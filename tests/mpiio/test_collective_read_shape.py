"""A collective read's resolver work grows with the ranks, not with their
square.

Each resolver walks only the ranks whose description reaches into its
stripe (``_stripe_ranks``).  In an interleaved job of 16 blocks of 1 KiB
per rank and ranks / 4 resolvers, every rank's blocks lie in 16 stripes,
so the resolvers clip ``16 x ranks`` rank runs (``clip_runs``) and cut as
many destination items (``_cut_wanted``) per read: doubling the ranks
doubles both.  Walking every rank from every resolver made it ``ranks x
ranks / 4`` — 1,024 at 64 ranks, 16,384 at 256.  The counts are exact, so
the shape is pinned without timing anything.
"""

from repro.bench.simcore import run_collective_io_point
from repro.cluster import ClusterConfig
from repro.mpiio.adio import collective

RANKS = (64, 128, 256)
BLOCKS_PER_RANK = 16


def resolver_work(monkeypatch, ranks: int):
    """``(clip_runs calls, _cut_wanted calls)`` of one interleaved
    write + collective read at ``ranks`` ranks (the write clips nothing)."""
    counts = {"clip": 0, "cut": 0}
    clip_runs, cut_wanted = collective.clip_runs, collective._cut_wanted

    def counted_clip(*args):
        counts["clip"] += 1
        return clip_runs(*args)

    def counted_cut(*args):
        counts["cut"] += 1
        return cut_wanted(*args)

    with monkeypatch.context() as patch:
        patch.setattr(collective, "clip_runs", counted_clip)
        patch.setattr(collective, "_cut_wanted", counted_cut)
        run_collective_io_point(ranks, BLOCKS_PER_RANK, 1024, 1, ranks // 4,
                                ClusterConfig())
    return counts["clip"], counts["cut"]


def test_resolver_work_doubles_with_the_ranks(monkeypatch):
    work = {ranks: resolver_work(monkeypatch, ranks) for ranks in RANKS}
    assert work == {ranks: (BLOCKS_PER_RANK * ranks,) * 2 for ranks in RANKS}
    for smaller, larger in zip(RANKS, RANKS[1:]):
        for before, after in zip(work[smaller], work[larger]):
            assert after <= 2 * before


def test_every_bucketed_rank_wants_bytes_of_its_stripe(monkeypatch):
    # the buckets of an interleaved job are exact: every clip yields runs
    # (at 128 ranks a stripe holds the blocks of half of them)
    clipped = []
    clip_runs = collective.clip_runs

    def recorded(*args):
        clipped.append(clip_runs(*args))
        return clipped[-1]

    monkeypatch.setattr(collective, "clip_runs", recorded)
    run_collective_io_point(128, BLOCKS_PER_RANK, 1024, 1, 32, ClusterConfig())
    assert clipped and all(clipped)
