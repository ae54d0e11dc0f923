"""Fault injection on the collective write path.

An aggregator is the one rank of a collective that talks to the storage
control plane, so its death is the interesting failure.  Two windows:

* *mid-commit* — the aggregator took its version ticket and fails while
  storing the stripe's metadata.  The commit engine must roll the partial
  nodes back and release the ticket (``VersionManager.abort``), the
  stripe must never have entered the aggregator's write queue (the group
  saw the failure; a later flush point retrying it would resurrect a write
  the application believes failed), the surviving aggregator's stripe must
  still publish, and no reader may ever observe a torn snapshot.

* *mid-exchange* — the aggregator dies before any ticket exists (its local
  flush ahead of the exchange fails).  The protocol must report the failure
  on every rank instead of hanging in a half-entered collective, and must
  leave the version manager completely clean.

* *mid-round* — the exchange runs once per stripe row of the aggregators'
  domains (three rounds here: 8 KiB domains over 3 providers x 1 KiB), each
  aggregator uploading one round's sub-stripe while the next is exchanged.
  Whatever dies in round *k* — a staging upload, the cut of a rank's
  pieces — the rank still enters every later round empty-handed and reports
  through the closing exchange; a staging that ran ahead holds no ticket,
  the commit's own (final) upload releases the one it took.

In every case the surviving ranks' own queued writes must still flush and
publish afterwards — one dead aggregator never stalls the group's progress
at the storage layer.
"""

import itertools

import pytest

from repro.core.listio import IOVector
from repro.errors import MPIIOError, ProviderUnavailable, StorageError
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.collective import aggregator_ranks
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from tests.mpiio._collective_testlib import make_quick_deployment, read_back_latest

FILE_SIZE = 16 * 1024
CHUNK = 1024
PATH = "/faulty"
NUM_RANKS = 4
NUM_AGGREGATORS = 2
#: with 4 ranks and 2 aggregators the owners are ranks 0 and 2
DOOMED_RANK = aggregator_ranks(NUM_RANKS, NUM_AGGREGATORS)[1]
#: exchange rounds of one collective: each aggregator's 8 KiB domain over
#: stripe rows of 3 providers x 1 KiB
ROUNDS = 3


def make_deployment():
    return make_quick_deployment(seed=9, chunk_size=CHUNK)


def block_pairs(rank, fill_base=65):
    """Interleaved 512-byte blocks: rank r owns blocks b with b % N == r.

    The global extent spans the whole file, so with two aggregators the
    lower half is stripe 0 (rank 0) and the upper half stripe 1 (rank 2).
    """
    return [(b * 512, bytes([fill_base + rank]) * 512)
            for b in range(rank, FILE_SIZE // 512, NUM_RANKS)]


def expected_surviving_content(dead_stripe_start):
    """All ranks' blocks below the dead stripe, zeros above it."""
    content = bytearray(FILE_SIZE)
    for rank in range(NUM_RANKS):
        for offset, payload in block_pairs(rank):
            if offset + len(payload) <= dead_stripe_start:
                content[offset:offset + len(payload)] = payload
    return bytes(content)


def read_back(cluster, deployment):
    return read_back_latest(cluster, deployment, PATH, FILE_SIZE)


def run_collective_with_sabotage(sabotage, vector_of=None):
    """Run one collective write; ``sabotage(rank, driver)`` may break ranks
    (``vector_of(rank)`` overrides what a rank writes).

    Each rank catches the collective's failure, then (to prove the group
    survives) queues an independent write of its first block's first 16
    bytes at a recognizable fill and syncs it.  ``result.rendezvous`` is the
    number of collectives the job had completed when rank 0 left the write.
    """
    cluster, deployment = make_deployment()
    drivers = {}
    rendezvous = []

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=NUM_AGGREGATORS)
        drivers[ctx.rank] = driver
        sabotage(ctx.rank, driver)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        outcome = "ok"
        try:
            yield from driver.write_vector_all(
                PATH, (vector_of or _vector)(ctx.rank), atomic=False,
                rank=ctx.rank, comm=ctx.comm)
        except Exception as exc:
            outcome = type(exc).__name__
        if ctx.rank == 0:
            rendezvous.append(ctx.comm.collectives_completed)
        # the group must still make progress: every rank publishes an
        # independent write after the failed collective
        yield from ctx.comm.barrier(ctx.rank)
        yield from handle.write_at(ctx.rank * 16, bytes([97 + ctx.rank]) * 16)
        yield from handle.sync()
        yield from handle.close()
        return outcome

    result = run_mpi_job(cluster, NUM_RANKS, rank_main)
    result.rendezvous = rendezvous[0]
    return cluster, deployment, drivers, result


def _vector(rank):
    return IOVector.for_write(block_pairs(rank))


class TestAggregatorDiesMidCommit:
    def _sabotage(self, rank, driver):
        if rank != DOOMED_RANK:
            return
        engine = driver.client.writepath

        def broken_store_nodes(blob, nodes, trace_parent=None):
            # one-shot: deleting the instance attribute restores the class
            # method, so the node "recovers" after killing the stripe commit
            del engine._store_nodes
            raise StorageError("aggregator node lost mid-commit")
            yield  # pragma: no cover - generator shape

        # fails after the ticket is assigned, before metadata is complete —
        # the exact window where a torn snapshot could be left behind
        engine._store_nodes = broken_store_nodes

    def test_rollback_publishes_survivors_and_leaves_no_torn_snapshot(self):
        cluster, deployment, drivers, result = \
            run_collective_with_sabotage(self._sabotage)

        # every rank observed the failure (the doomed one with the original
        # error, the others with the collective failure report)
        assert result.results[DOOMED_RANK] == "StorageError"
        assert all(outcome != "ok" for outcome in result.results)

        manager = deployment.version_manager.manager
        # the dead aggregator's ticket was released; nothing is pending,
        # publication never stalled for the survivors
        assert manager.tickets_aborted == 1
        assert manager.pending_versions(PATH) == []

        # the failed stripe never entered the queue, so the later sync had
        # nothing of it to retry: the one write the doomed client staged,
        # and the one its sync published, is its post-failure 16 bytes
        stats = drivers[DOOMED_RANK].client.coalescer.stats
        assert (stats.staged_writes, stats.coalesced_writes,
                stats.coalesced_bytes) == (1, 1, 16)

        # no torn snapshot: the surviving stripe is fully there, the dead
        # stripe reads as never written (its predecessor's zeros), and the
        # post-failure independent writes all published
        content = read_back(cluster, deployment)
        survivors = bytearray(expected_surviving_content(FILE_SIZE // 2))
        for rank in range(NUM_RANKS):
            survivors[rank * 16:(rank + 1) * 16] = bytes([97 + rank]) * 16
        assert content == bytes(survivors)


class TestAggregatorDiesMidExchange:
    def _sabotage(self, rank, driver):
        if rank != DOOMED_RANK:
            return
        coalescer = driver.client.coalescer
        original_flush = coalescer.flush

        def dying_flush(blob_id=None):
            if coalescer.pending_writes(PATH):
                raise StorageError("aggregator died before the exchange")
            result = yield from original_flush(blob_id)
            return result

        coalescer.flush = dying_flush

    def test_pre_ticket_death_aborts_cleanly_on_every_rank(self):
        # give the doomed rank queued state so its phase-0 flush runs (and
        # dies) before any exchange or ticket
        def sabotage(rank, driver):
            self._sabotage(rank, driver)

        cluster, deployment = make_deployment()
        drivers = {}

        def rank_main(ctx):
            driver = VersioningDriver(deployment, ctx.node,
                                      rank_name=f"rank{ctx.rank}",
                                      write_coalescing=True,
                                      collective_buffering=True,
                                      collective_aggregators=NUM_AGGREGATORS)
            drivers[ctx.rank] = driver
            handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                          comm=ctx.comm, size_hint=FILE_SIZE)
            # every rank queues an independent write first; the doomed
            # rank's pre-exchange flush of it is what dies
            yield from handle.write_at(FILE_SIZE - (ctx.rank + 1) * 32,
                                       bytes([49 + ctx.rank]) * 32)
            sabotage(ctx.rank, driver)
            outcome = "ok"
            try:
                yield from driver.write_vector_all(
                    PATH, _vector(ctx.rank), atomic=False, rank=ctx.rank,
                    comm=ctx.comm)
            except Exception as exc:
                outcome = type(exc).__name__
            yield from ctx.comm.barrier(ctx.rank)
            # restore the doomed rank so its close() can flush its queue
            if ctx.rank == DOOMED_RANK:
                del driver.client.coalescer.flush
            yield from handle.close()
            return outcome

        result = run_mpi_job(cluster, NUM_RANKS, rank_main)

        assert result.results[DOOMED_RANK] == "StorageError"
        assert all(outcome != "ok" for outcome in result.results)

        # the collective died before any ticket: only the ranks' own queued
        # writes ever committed, all published, nothing aborted or pending
        manager = deployment.version_manager.manager
        assert manager.tickets_aborted == 0
        assert manager.pending_versions(PATH) == []
        assert manager.latest_published(PATH) == NUM_RANKS

        # surviving ranks' flushes published their queued writes; the file
        # holds exactly those (no stripe data ever committed)
        content = read_back(cluster, deployment)
        expected = bytearray(FILE_SIZE)
        for rank in range(NUM_RANKS):
            start = FILE_SIZE - (rank + 1) * 32
            expected[start:start + 32] = bytes([49 + rank]) * 32
        assert content == bytes(expected)


def _break_store_nodes(deployment, driver):
    """The doomed aggregator loses a metadata shard mid-commit."""
    def broken_store_nodes(blob, nodes, trace_parent=None):
        raise StorageError("transient shard failure")
        yield  # pragma: no cover - generator shape
    driver.client.writepath._store_nodes = broken_store_nodes

    def heal():
        del driver.client.writepath._store_nodes
    return heal


def _kill_provider_under_a_round_upload(deployment, driver):
    """A data provider dies as the third upload batch reaches it: some
    aggregator's round upload — placed there before the crash — is lost."""
    provider = deployment.data_provider("bs-data1")
    real_put_chunks = provider.put_chunks
    arrivals = itertools.count()

    def dying_put_chunks(items):
        if next(arrivals) == 2:
            deployment.fail_provider("bs-data1")
        stored = yield from real_put_chunks(items)
        return stored

    provider.put_chunks = dying_put_chunks

    def heal():
        del provider.put_chunks
        deployment.recover_provider("bs-data1")
    return heal


@pytest.mark.parametrize("fault,lost_stripes", [
    (_break_store_nodes, 1),
    # both aggregators have a round's upload in flight at the dead provider
    (_kill_provider_under_a_round_upload, 2),
])
def test_failed_collective_does_not_block_later_collectives(fault,
                                                            lost_stripes):
    """After a failed collective — an aggregator dying mid-commit, or a
    provider dying under one round's staging upload — the same group can run
    a fresh collective (the fault is healed first) and it publishes
    normally."""
    cluster, deployment = make_deployment()
    heals = []
    failures = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=NUM_AGGREGATORS)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        if ctx.rank == DOOMED_RANK:
            heals.append(fault(deployment, driver))
        with pytest.raises((StorageError, MPIIOError)) as raised:
            yield from driver.write_vector_all(
                PATH, _vector(ctx.rank), atomic=False, rank=ctx.rank,
                comm=ctx.comm)
        failures[ctx.rank] = raised.value
        yield from ctx.comm.barrier(ctx.rank)
        if ctx.rank == DOOMED_RANK:
            heals.pop()()  # the fault heals
        yield from ctx.comm.barrier(ctx.rank)
        yield from driver.write_vector_all(
            PATH, _vector(ctx.rank), atomic=False, rank=ctx.rank,
            comm=ctx.comm)
        yield from handle.close()

    run_mpi_job(cluster, NUM_RANKS, rank_main)
    # every rank raised; the ones whose own part was healthy got the report
    assert len(failures) == NUM_RANKS
    assert any(type(error) is MPIIOError for error in failures.values())
    manager = deployment.version_manager.manager
    assert manager.pending_versions(PATH) == []
    assert manager.tickets_aborted == lost_stripes
    # the retried collective produced the full expected contents
    content = read_back(cluster, deployment)
    expected = bytearray(FILE_SIZE)
    for rank in range(NUM_RANKS):
        for offset, payload in block_pairs(rank):
            expected[offset:offset + len(payload)] = payload
    assert content == bytes(expected)


class TestFailureInOneRound:
    """Whatever dies in round k of R, the group finishes all R rounds."""

    @pytest.mark.parametrize("failing_round", range(ROUNDS))
    def test_staging_failure_is_contained_and_holds_no_ticket(
            self, failing_round):
        """The doomed aggregator's ``failing_round``-th upload dies: rounds
        0 and 1 are staged ahead (no ticket is theirs to hold), round 2 is
        the commit's own upload.  A lost staging costs the commit the ticket
        it had requested alongside its own upload, released again; here the
        commit's own upload dies before it asks for one.  Nothing is pending
        either way, and the other aggregator's stripe publishes whole."""
        def sabotage(rank, driver):
            if rank != DOOMED_RANK:
                return
            engine = driver.client.writepath
            real_stage = engine.stage
            calls = itertools.count()

            def dying_stage(blob_id, vector, **kwargs):
                if next(calls) == failing_round:
                    raise ProviderUnavailable("provider lost under upload")
                staged = yield from real_stage(blob_id, vector, **kwargs)
                return staged

            engine.stage = dying_stage

        cluster, deployment, drivers, result = \
            run_collective_with_sabotage(sabotage)

        assert result.results[DOOMED_RANK] == "ProviderUnavailable"
        assert [outcome for rank, outcome in enumerate(result.results)
                if rank != DOOMED_RANK] == ["MPIIOError"] * (NUM_RANKS - 1)
        # nobody left the protocol early: open barrier, describe, one
        # exchange per round, closing
        assert result.rendezvous == 3 + ROUNDS

        manager = deployment.version_manager.manager
        assert manager.tickets_aborted == (failing_round < ROUNDS - 1)
        assert manager.pending_versions(PATH) == []
        doomed = drivers[DOOMED_RANK]
        assert doomed.client.coalescer.pending_writes(PATH) == 0
        assert doomed.aggregator.stats.stripes_committed == 0
        survivor = drivers[aggregator_ranks(NUM_RANKS, NUM_AGGREGATORS)[0]]
        assert survivor.aggregator.stats.stripes_committed == 1
        # the rounds that did upload left the doomed client's chunk cache
        # with the stripe: it holds the 16 bytes it published afterwards
        assert doomed.client.chunk_cache.resident_bytes == 16
        assert survivor.client.chunk_cache.resident_bytes \
            == FILE_SIZE // 2 + 16

        content = read_back(cluster, deployment)
        survivors = bytearray(expected_surviving_content(FILE_SIZE // 2))
        for rank in range(NUM_RANKS):
            survivors[rank * 16:(rank + 1) * 16] = bytes([97 + rank]) * 16
        assert content == bytes(survivors)

    def test_validation_error_fails_the_sub_stripe_that_holds_it(self):
        """Rank 1's last block reaches past the end of the BLOB.  Nothing
        checks a peer's access before the exchange; the aggregator whose
        final sub-stripe receives the piece fails to stage it and reports,
        the rounds it staged ahead are dropped with it."""
        def vector_of(rank):
            pairs = block_pairs(rank)
            if rank == 1:
                pairs = pairs[:-1] + [(FILE_SIZE - 256, b"!" * 512)]
            return IOVector.for_write(pairs)

        cluster, deployment, drivers, result = \
            run_collective_with_sabotage(lambda rank, driver: None,
                                         vector_of=vector_of)
        assert result.results[DOOMED_RANK] == "OutOfBounds"
        assert [outcome for rank, outcome in enumerate(result.results)
                if rank != DOOMED_RANK] == ["MPIIOError"] * (NUM_RANKS - 1)
        assert result.rendezvous == 3 + ROUNDS
        manager = deployment.version_manager.manager
        assert manager.pending_versions(PATH) == []
        assert drivers[DOOMED_RANK].client.coalescer.pending_writes(PATH) == 0
        assert [drivers[rank].aggregator.stats.stripes_committed
                for rank in aggregator_ranks(NUM_RANKS, NUM_AGGREGATORS)] \
            == [1, 0]

    @pytest.mark.parametrize("failing_round", range(1, ROUNDS))
    def test_an_aggregator_giving_up_forgets_what_went_ahead(
            self, failing_round):
        """The doomed aggregator cannot assemble round ``failing_round``: it
        never reaches a commit, so nothing aborts — the sub-stripes already
        uploaded, and the ones still uploading when it gives up, leave its
        chunk cache all the same."""
        landed_after_giving_up = []

        def sabotage(rank, driver):
            if rank != DOOMED_RANK:
                return
            aggregator, engine = driver.aggregator, driver.client.writepath
            real_assemble, real_forget = aggregator._assemble, engine.forget
            calls = itertools.count()

            def dying_assemble(received, self_rank):
                if next(calls) == failing_round:
                    raise StorageError("assembly died")
                return real_assemble(received, self_rank)

            def watched_forget(pieces=(), ahead=None):
                if ahead is None:
                    landed_after_giving_up.append(len(pieces))
                real_forget(pieces, ahead)

            aggregator._assemble = dying_assemble
            engine.forget = watched_forget

        cluster, deployment, drivers, result = \
            run_collective_with_sabotage(sabotage)
        assert result.results[DOOMED_RANK] == "StorageError"
        assert result.rendezvous == 3 + ROUNDS
        manager = deployment.version_manager.manager
        assert manager.tickets_aborted == 0
        assert manager.pending_versions(PATH) == []
        doomed = drivers[DOOMED_RANK]
        assert doomed.aggregator.stats.stripes_committed == 0
        assert doomed.client.chunk_cache.resident_bytes == 16
        # every round that went ahead was still on its way to the disks (a
        # stripe row is three chunks) and dropped its chunks as it landed
        assert landed_after_giving_up == [3] * failing_round

    def test_a_placement_nothing_used_is_joined_before_the_rank_leaves(self):
        """The stripe's ``allocate`` runs in the background beside round 0.
        The doomed aggregator dies assembling round 0, so no sub-stripe
        ever joins that placement — a slow one here — and it is still
        joined before the rank leaves the collective."""
        placed_at, left_at = [], []

        def sabotage(rank, driver):
            if rank != DOOMED_RANK:
                return
            sim = driver.client.cluster.sim
            manager = driver.client.deployment.provider_manager
            real_allocate, real_write = manager.allocate, driver.write_vector_all

            def slow_allocate(sizes, writer=None):
                if writer == driver.client.name:
                    yield sim.timeout(1.0)
                chosen = yield from real_allocate(sizes, writer)
                if writer == driver.client.name:
                    placed_at.append(sim.now)
                return chosen

            def dying_assemble(received, self_rank):
                raise StorageError("assembly died")

            def timed_write(*args, **kwargs):
                try:
                    yield from real_write(*args, **kwargs)
                finally:
                    left_at.append(sim.now)

            manager.allocate = slow_allocate
            driver.aggregator._assemble = dying_assemble
            driver.write_vector_all = timed_write

        cluster, deployment, drivers, result = \
            run_collective_with_sabotage(sabotage)
        assert result.results[DOOMED_RANK] == "StorageError"
        assert placed_at and placed_at[0] >= 1.0
        assert placed_at[0] < left_at[0]
        manager = deployment.version_manager.manager
        assert manager.tickets_aborted == 0
        assert manager.pending_versions(PATH) == []

    @pytest.mark.parametrize("doomed", [1, DOOMED_RANK],
                             ids=["plain-rank", "aggregator"])
    def test_cut_failure_enters_every_round_empty_handed(self, doomed):
        """A rank that dies cutting its pieces at the round edges ships
        nothing in any round — and still shows up for each of them."""
        def sabotage(rank, driver):
            if rank == doomed:
                def dying_cut(*_args):
                    raise StorageError("cut died")
                driver.aggregator._cut_rounds = dying_cut

        cluster, deployment, drivers, result = \
            run_collective_with_sabotage(sabotage)
        assert result.results[doomed] == "StorageError"
        assert all(outcome == "MPIIOError"
                   for rank, outcome in enumerate(result.results)
                   if rank != doomed)
        assert result.rendezvous == 3 + ROUNDS
        manager = deployment.version_manager.manager
        assert manager.tickets_aborted == 0
        assert manager.pending_versions(PATH) == []
        # an aggregator that failed commits nothing; every healthy one
        # publishes its stripe of the healthy ranks' pieces
        committed = [drivers[rank].aggregator.stats.stripes_committed
                     for rank in aggregator_ranks(NUM_RANKS, NUM_AGGREGATORS)]
        assert committed == [1, 0 if doomed == DOOMED_RANK else 1]
        # non-aggregators never touched the control plane for it
        for rank in (1, 3):
            assert drivers[rank].aggregator.stats.stripes_committed == 0


class TestPartitionPhaseFailure:
    """Failures between the opening exchange and the data exchange."""

    def test_invalid_aggregator_count_fails_at_construction(self):
        """A bad setting must die before any collective is entered — one
        rank failing mid-protocol would strand its peers."""
        cluster, deployment = make_deployment()
        with pytest.raises(MPIIOError):
            VersioningDriver(deployment, cluster.add_node("bad"),
                             collective_buffering=True,
                             collective_aggregators=0)

    def test_partition_failure_reports_on_every_rank_instead_of_hanging(self):
        """What the partition needs from one rank alone (its aggregator
        setting, the descriptor) is resolved before the opening exchange: a
        rank that dies there reports in it, so the whole group stops before
        the first exchange round — nobody has to guess a round count, and
        nobody blocks forever."""
        cluster, deployment = make_deployment()
        comms = []

        def rank_main(ctx):
            driver = VersioningDriver(deployment, ctx.node,
                                      rank_name=f"rank{ctx.rank}",
                                      write_coalescing=True,
                                      collective_buffering=True,
                                      collective_aggregators=NUM_AGGREGATORS)
            comms.append(ctx.comm)
            if ctx.rank == DOOMED_RANK:
                def dying_count(size):
                    raise StorageError("partition phase died")
                driver.aggregator.resolved_count = dying_count
            handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                          comm=ctx.comm, size_hint=FILE_SIZE)
            outcome = "ok"
            try:
                yield from driver.write_vector_all(
                    PATH, _vector(ctx.rank), atomic=False, rank=ctx.rank,
                    comm=ctx.comm)
            except Exception as exc:
                outcome = type(exc).__name__
            yield from handle.close()
            return outcome

        result = run_mpi_job(cluster, NUM_RANKS, rank_main)
        assert result.results[DOOMED_RANK] == "StorageError"
        assert all(outcome != "ok" for outcome in result.results)
        # open barrier + the opening allgather, and not one exchange round
        assert comms[0].collectives_completed == 2
        # nothing was committed, so nothing stalled or tore
        manager = deployment.version_manager.manager
        assert manager.pending_versions(PATH) == []
        assert manager.tickets_aborted == 0
        assert manager.latest_published(PATH) == 0


def test_aggregator_runs_on_a_plain_blob_client():
    """A stripe commit needs the client's commit engine and nothing else:
    ranks holding stock ``BlobClient``s (no ADIO driver) run the collective
    and land the serial application of their writes."""
    from repro.blobseer.client import BlobClient
    from repro.mpiio.adio.collective import CollectiveAggregator
    from tests._oracle import random_pattern, serial_oracle

    pattern = random_pattern(31, NUM_RANKS, file_size=FILE_SIZE)
    cluster, deployment = make_deployment()
    aggregators = {}

    def rank_main(ctx):
        client = BlobClient(deployment, ctx.node, name=f"bare{ctx.rank}")
        aggregators[ctx.rank] = aggregator = CollectiveAggregator(
            client, num_aggregators=NUM_AGGREGATORS)
        if ctx.rank == 0:
            yield from client.create_blob(PATH, FILE_SIZE, chunk_size=CHUNK)
        yield from ctx.comm.barrier(ctx.rank)
        pairs = pattern[ctx.rank]
        yield from aggregator.collective_write(
            PATH, IOVector.for_write(pairs) if pairs else IOVector(),
            ctx.rank, ctx.comm)

    run_mpi_job(cluster, NUM_RANKS, rank_main)
    assert read_back(cluster, deployment) == serial_oracle(pattern, FILE_SIZE)
    assert sum(aggregator.stats.stripes_committed
               for aggregator in aggregators.values()) \
        == deployment.version_manager.manager.latest_published(PATH) > 0


def _die_storing_metadata(driver, _failing_round):
    engine = driver.client.writepath

    def broken_store_nodes(blob, nodes, trace_parent=None):
        del engine._store_nodes  # one-shot
        raise StorageError("aggregator node lost mid-commit")
        yield  # pragma: no cover - generator shape

    engine._store_nodes = broken_store_nodes


def _die_staging(driver, failing_round):
    engine = driver.client.writepath
    real_stage, calls = engine.stage, itertools.count()

    def dying_stage(blob_id, vector, **kwargs):
        if next(calls) == failing_round:
            raise ProviderUnavailable("provider lost under upload")
        staged = yield from real_stage(blob_id, vector, **kwargs)
        return staged

    engine.stage = dying_stage


def _die_assembling(driver, failing_round):
    aggregator = driver.aggregator
    real_assemble, calls = aggregator._assemble, itertools.count()

    def dying_assemble(received, self_rank):
        if next(calls) == failing_round:
            raise StorageError("assembly died")
        return real_assemble(received, self_rank)

    aggregator._assemble = dying_assemble


@pytest.mark.parametrize("fault,failing_round", [
    (_die_storing_metadata, None),
    *((_die_staging, index) for index in range(ROUNDS)),
    *((_die_assembling, index) for index in range(1, ROUNDS)),
])
def test_a_stripe_given_up_is_forgotten_once(fault, failing_round):
    """Whether the doomed aggregator fails before its publish (a round it
    cannot stage or assemble) or inside it (its own upload, its metadata),
    what went ahead of the publish is forgotten exactly once: by the
    exchange in the first case, by the failed commit in the second."""
    forgotten = []

    def sabotage(rank, driver):
        engine = driver.client.writepath
        real_forget = engine.forget

        def counted_forget(pieces=(), ahead=None):
            if ahead is not None:
                forgotten.append(ahead)
            real_forget(pieces, ahead)

        engine.forget = counted_forget
        if rank == DOOMED_RANK:
            fault(driver, failing_round)

    _cluster, _deployment, _drivers, result = \
        run_collective_with_sabotage(sabotage)
    assert result.results[DOOMED_RANK] != "ok"
    assert len(forgotten) == 1
