"""The two-phase write exchange over a client that is no storage backend.

:class:`CollectiveAggregator` asks its rank's client only the write hooks
(``repro.mpiio.adio.collective``'s module docstring).  ``_ImageWriter``
implements just those over one in-memory file image shared by the ranks —
no versions, no placement, no providers — and imports nothing from
``repro.blobseer``.  Whatever the pattern, rank count or aggregator count,
the image must end as the ranks' writes applied serially in rank order,
and every round an aggregator stages must be exactly the extents the plan
declared when the stripe was placed.
"""

import random
from types import SimpleNamespace

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core.listio import IOVector
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.collective import CollectiveAggregator
from tests._oracle import random_pattern, serial_oracle

FILE_SIZE = 16 * 1024
CHUNK = 1024
PROVIDERS = 3
PATH = "/image"
#: disks that position in a microsecond: one stripe row already is a round
#: worth its positioning, so a stripe is exchanged in several rounds
QUICK = ClusterConfig(network_latency=1e-5, disk_overhead=1e-6)


class _ImageWriter:
    """Stand-in collective writer: it stages a round's runs by keeping
    them and publishes a stripe by painting every round onto the shared
    image in round order."""

    trace_ctx = None

    def __init__(self, cluster, image, log):
        self.cluster, self.image, self.log = cluster, image, log
        self.watermark = None

    def collective_flush(self, blob_id):
        return
        yield  # pragma: no cover - generator shape

    def collective_geometry(self, blob_id):
        return CHUNK, PROVIDERS
        yield  # pragma: no cover - generator shape

    def collective_place(self, blob_id, parts, rank):
        def place():
            return SimpleNamespace(parts=parts, staged=[])
            yield  # pragma: no cover - generator shape

        return self.cluster.sim.process(place())

    def collective_stage(self, blob_id, runs, ahead, index):
        assert [(run.offset, run.size) for run in runs] == ahead.parts[index]
        assert not ahead.staged or ahead.staged[-1][0] < index
        ahead.staged.append((index, runs))
        self.log.append(("stage", index))

    def collective_publish(self, blob_id, runs, ahead, logical_writes):
        rounds = []
        if ahead is not None:
            assert [(run.offset, run.size) for run in runs] == ahead.parts[-1]
            rounds = [staged for _index, staged in ahead.staged]
        for vector in rounds + [runs]:
            vector.apply_to(self.image)
        self.log.append(("publish", logical_writes))
        return SimpleNamespace(version=len(
            [entry for entry in self.log if entry[0] == "publish"]))
        yield  # pragma: no cover - generator shape

    def collective_forget(self, ahead):
        raise AssertionError("nothing failed, so nothing is forgotten")

    def collective_settle(self, blob_id, watermark, gapless, receipt):
        self.watermark = watermark

    def drop_read_hint(self, blob_id):
        raise AssertionError("nothing failed, so no hint is dropped")


def run_image_job(pattern, num_aggregators):
    cluster = Cluster(config=QUICK, seed=1)
    image = bytearray(FILE_SIZE)
    log = []
    writers = [_ImageWriter(cluster, image, log) for _rank in pattern]
    aggregators = [CollectiveAggregator(writer, num_aggregators)
                   for writer in writers]

    def rank_main(ctx):
        pairs = pattern[ctx.rank]
        written = yield from aggregators[ctx.rank].collective_write(
            PATH, IOVector.for_write(pairs) if pairs else IOVector(),
            ctx.rank, ctx.comm)
        return written

    result = run_mpi_job(cluster, len(pattern), rank_main)
    return bytes(image), log, writers, aggregators, result.results


@pytest.mark.parametrize("seed", range(24))
def test_the_exchange_lands_the_serial_application_on_any_client(seed):
    rng = random.Random(seed)
    num_ranks = rng.randint(2, 6)
    num_aggregators = rng.choice(sorted({1, 2, num_ranks}))
    pattern = random_pattern(seed, num_ranks, file_size=FILE_SIZE)
    image, log, writers, aggregators, results = run_image_job(
        pattern, num_aggregators)
    assert image == serial_oracle(pattern, FILE_SIZE)
    assert results == [sum(len(data) for _offset, data in pairs)
                       for pairs in pattern]
    publishes = [entry for entry in log if entry[0] == "publish"]
    # one publish per aggregator that received bytes, each rank with data
    # attributed to exactly one of them
    assert 0 < len(publishes) <= min(num_aggregators, num_ranks)
    assert sum(count for _kind, count in publishes) \
        == sum(1 for pairs in pattern if pairs)
    assert {writer.watermark for writer in writers} == {len(publishes)}
    assert sum(aggregator.stats.stripes_committed
               for aggregator in aggregators) == len(publishes)


def test_a_stripe_of_many_rounds_goes_ahead_round_by_round():
    """One aggregator owning the whole file stages every round but the last
    ahead of its one publish."""
    rng = random.Random(7)
    pattern = [[(offset, bytes([rank + 1]) * 700)
                for offset in sorted(rng.sample(range(0, FILE_SIZE - 700,
                                                      700), 4))]
               for rank in range(4)]
    image, log, _writers, _aggregators, _results = run_image_job(pattern, 1)
    assert image == serial_oracle(pattern, FILE_SIZE)
    stages = [index for kind, index in log if kind == "stage"]
    assert len(stages) >= 2 and stages == sorted(stages)
    assert log[-1] == ("publish", 4)
