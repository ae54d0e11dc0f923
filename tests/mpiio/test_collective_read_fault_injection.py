"""Fault injection on the collective read path.

A resolver is the one rank of a collective read that talks to the storage
back-end, so its death is the interesting failure.  Windows:

* *mid-fetch* — the resolver dies resolving/fetching its stripe (a dead
  metadata shard or data provider under it).  It must enter the data
  exchange carrying only its error report, addressed to every rank: every
  rank raises after the scatter instead of hanging, no rank's cache holds
  anything but its own traversal, and the version-manager state is
  untouched (reads own no tickets).

* *mid-broadcast* — the resolver dies between the opening exchange and the
  scatter (partition/stripe-cutting work).  Same containment contract.

* *pre-exchange* — a rank dies before the opening exchange (its phase-0
  flush or resolver-count resolution fails).  The collective aborts on
  every rank before any metadata work happens.

* *non-resolver death* — a bystander rank can fail too (its descriptor
  fetch); the resolvers' work must not strand anyone.

In every case the group must make progress afterwards: once the fault
heals, the same ranks run a fresh collective read that succeeds, a
following independent read returns the same bytes — and a stale read hint
never survives a failed collective.
"""

import pytest

from repro.errors import StorageError
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.collective import aggregator_ranks
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.vstore.client import VectoredClient
from tests.mpiio._collective_testlib import make_quick_deployment

FILE_SIZE = 16 * 1024
CHUNK = 1024
PATH = "/read-faulty"
NUM_RANKS = 4
NUM_RESOLVERS = 2
#: with 4 ranks and 2 resolvers the owners are ranks 0 and 2
DOOMED_RANK = aggregator_ranks(NUM_RANKS, NUM_RESOLVERS)[1]
#: a rank that never resolves anything
BYSTANDER_RANK = 1


def make_deployment():
    return make_quick_deployment(seed=21, chunk_size=CHUNK)


def seed_content(cluster, deployment):
    client = VectoredClient(deployment, cluster.add_node("seeder"),
                            name="seeder")
    content = bytearray(FILE_SIZE)
    for block in range(0, FILE_SIZE // 1024):
        payload = bytes([40 + block % 100]) * 1024
        content[block * 1024:(block + 1) * 1024] = payload

    def scenario():
        yield from client.create_blob(PATH, FILE_SIZE, chunk_size=CHUNK)
        yield from client.vwrite_and_wait(PATH, [(0, bytes(content))])

    process = cluster.sim.process(scenario())
    cluster.sim.run(stop_event=process)
    return bytes(content)


def run_collective_read_with_sabotage(sabotage, heal):
    """One failing collective read, then a healed retry on the same ranks.

    ``sabotage(rank, driver)`` breaks ranks before the first read;
    ``heal(rank, driver)`` repairs them before the retry.  Returns the
    cluster, content, drivers, per-rank first-read outcomes, per-rank
    mid-job cache observations and the retry results.
    """
    cluster, deployment = make_deployment()
    content = seed_content(cluster, deployment)
    drivers = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=NUM_RESOLVERS)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        sabotage(ctx.rank, driver)
        outcome = "ok"
        try:
            yield from handle.read_at_all(0, FILE_SIZE)
        except Exception as exc:
            outcome = type(exc).__name__
        # observed *between* the failed collective and the healed retry:
        # nothing but a rank's own traversal may be in its cache
        cache_state = (len(driver.client.metadata_cache),
                       PATH in driver.client._read_hints)
        yield from ctx.comm.barrier(ctx.rank)
        heal(ctx.rank, driver)
        data = yield from handle.read_at_all(0, FILE_SIZE)
        yield from handle.close()
        return outcome, cache_state, data

    result = run_mpi_job(cluster, NUM_RANKS, rank_main)
    outcomes = [entry[0] for entry in result.results]
    cache_states = [entry[1] for entry in result.results]
    retries = [entry[2] for entry in result.results]
    return cluster, deployment, content, drivers, outcomes, cache_states, \
        retries


def assert_contained_failure(deployment, content, outcomes, cache_states,
                             retries, doomed=DOOMED_RANK,
                             doomed_error="StorageError"):
    """The shared containment contract of every injected fault."""
    assert outcomes[doomed] == doomed_error
    assert all(outcome != "ok" for outcome in outcomes)
    # nothing of the failed collective reached a peer's cache, hints did
    # not survive
    healthy_resolvers = set(aggregator_ranks(NUM_RANKS, NUM_RESOLVERS)) \
        - {doomed}
    for rank, (cache_len, hint_pending) in enumerate(cache_states):
        assert not hint_pending, f"rank {rank} kept a hint past the failure"
        if rank not in healthy_resolvers:
            # only a surviving resolver's own traversal may have cached
            assert cache_len == 0, f"rank {rank} cached a peer's nodes"
    # reads own no tickets: the version manager never saw the failure
    manager = deployment.version_manager.manager
    assert manager.pending_versions(PATH) == []
    assert manager.tickets_aborted == 0
    # the healed retry succeeds for everyone — no lasting damage
    assert all(data == content for data in retries)


class TestResolverDiesMidFetch:
    def _sabotage(self, rank, driver):
        if rank != DOOMED_RANK:
            return

        def dying_read(blob_id, vector, version=None):
            raise StorageError("resolver died mid-fetch")
            yield  # pragma: no cover - generator shape

        driver.client.fetch_extents = dying_read

    def _heal(self, rank, driver):
        if rank == DOOMED_RANK:
            del driver.client.fetch_extents

    def test_no_peer_hangs_and_caches_stay_clean(self):
        _cluster, deployment, content, _drivers, outcomes, cache_states, \
            retries = run_collective_read_with_sabotage(self._sabotage,
                                                        self._heal)
        assert_contained_failure(deployment, content, outcomes, cache_states,
                                 retries)


def test_a_failed_resolver_reaches_a_rank_that_wanted_none_of_its_stripe():
    """The failure rides the scatter to *every* rank: rank 1 reads only
    the first stripe, which the healthy resolver serves, and still raises —
    after the same three collectives as a successful read (the open
    barrier, the describe allgather and the scatter), with no closing
    phase behind them."""
    from repro.errors import MPIIOError
    cluster, deployment = make_deployment()
    seed_content(cluster, deployment)
    fault = TestResolverDiesMidFetch()

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=NUM_RESOLVERS)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        fault._sabotage(ctx.rank, driver)
        size = 1024 if ctx.rank == BYSTANDER_RANK else FILE_SIZE
        outcome = None
        try:
            yield from handle.read_at_all(0, size)
        except Exception as exc:
            outcome = exc
        return outcome, ctx.comm.collectives_completed

    result = run_mpi_job(cluster, NUM_RANKS, rank_main)
    outcomes = [entry[0] for entry in result.results]
    # the stripes split the file in halves; the doomed resolver owns the
    # second, the bystander wants bytes of the first only
    assert DOOMED_RANK == aggregator_ranks(NUM_RANKS, NUM_RESOLVERS)[1]
    assert isinstance(outcomes[DOOMED_RANK], StorageError)
    assert isinstance(outcomes[BYSTANDER_RANK], MPIIOError)
    assert f"rank {DOOMED_RANK}:" in str(outcomes[BYSTANDER_RANK])
    assert all(isinstance(outcome, MPIIOError)
               for rank, outcome in enumerate(outcomes) if rank != DOOMED_RANK)
    assert [entry[1] for entry in result.results] == [3] * NUM_RANKS


class TestResolverDiesMidBroadcast:
    def _sabotage(self, rank, driver):
        if rank != DOOMED_RANK:
            return

        def dying_stripe(*args, **kwargs):
            raise StorageError("resolver died mid-broadcast")
            yield  # pragma: no cover - generator shape

        driver.reader._resolve_stripe = dying_stripe

    def _heal(self, rank, driver):
        if rank == DOOMED_RANK:
            del driver.reader._resolve_stripe

    def test_survivors_raise_instead_of_blocking(self):
        _cluster, deployment, content, _drivers, outcomes, cache_states, \
            retries = run_collective_read_with_sabotage(self._sabotage,
                                                        self._heal)
        assert_contained_failure(deployment, content, outcomes, cache_states,
                                 retries)


class TestNonResolverDies:
    def _sabotage(self, rank, driver):
        if rank != BYSTANDER_RANK:
            return

        def dying_descriptor(blob_id):
            raise StorageError("bystander died mid-collective")
            yield  # pragma: no cover - generator shape

        driver.client._descriptor = dying_descriptor

    def _heal(self, rank, driver):
        if rank == BYSTANDER_RANK:
            del driver.client._descriptor

    def test_bystander_failure_reports_on_every_rank(self):
        _cluster, deployment, content, _drivers, outcomes, cache_states, \
            retries = run_collective_read_with_sabotage(
                self._sabotage, self._heal)
        assert_contained_failure(deployment, content, outcomes, cache_states,
                                 retries, doomed=BYSTANDER_RANK)


class TestPreExchangeDeath:
    def _sabotage(self, rank, driver):
        if rank != DOOMED_RANK:
            return

        def dying_count(size):
            raise StorageError("pre-exchange death")

        driver.reader.resolved_count = dying_count

    def _heal(self, rank, driver):
        if rank == DOOMED_RANK:
            del driver.reader.resolved_count

    def test_collective_aborts_before_any_metadata_work(self):
        _cluster, deployment, content, drivers, outcomes, cache_states, \
            retries = run_collective_read_with_sabotage(self._sabotage,
                                                        self._heal)
        assert_contained_failure(deployment, content, outcomes, cache_states,
                                 retries)
        # nobody resolved anything: the abort happened at the opening phase
        for driver in drivers.values():
            assert driver.reader.stats.stripes_resolved <= 1  # retry only


def test_invalid_resolver_count_fails_at_construction():
    """A bad setting must die before any collective is entered — one rank
    failing mid-protocol would strand its peers."""
    from repro.errors import MPIIOError
    cluster, deployment = make_deployment()
    with pytest.raises(MPIIOError):
        VersioningDriver(deployment, cluster.add_node("bad"),
                         collective_buffering=True,
                         collective_aggregators=0)


def test_failed_collective_read_drops_a_planted_hint():
    """A hint planted by an earlier successful collective must not survive a
    failed collective read on any rank: a peer's phase-0 barrier may have
    published in the window, so the next default read must round-trip."""
    cluster, deployment = make_deployment()
    content = seed_content(cluster, deployment)
    drivers = {}

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=NUM_RESOLVERS)
        drivers[ctx.rank] = driver
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        # a successful collective read plants a hint on every rank
        yield from handle.read_at_all(0, 1024)
        assert PATH in driver.client._read_hints
        if ctx.rank == DOOMED_RANK:
            def dying_read(blob_id, vector, version=None):
                raise StorageError("resolver died")
                yield  # pragma: no cover - generator shape
            driver.client.fetch_extents = dying_read
        with pytest.raises(Exception):
            yield from handle.read_at_all(0, FILE_SIZE)
        assert PATH not in driver.client._read_hints
        yield from ctx.comm.barrier(ctx.rank)
        if ctx.rank == DOOMED_RANK:
            del driver.client.fetch_extents
        # the next default read round-trips for ``latest`` and still works
        before = driver.client.latest_rpcs
        data = yield from handle.read_at(0, 2048)
        yield from handle.close()
        return data, driver.client.latest_rpcs - before

    result = run_mpi_job(cluster, NUM_RANKS, rank_main)
    for data, latest_delta in result.results:
        assert data == content[:2048]
        assert latest_delta == 1


def test_healed_retry_and_a_following_independent_read_return_the_bytes():
    """A failed collective leaves nothing behind that a retry could trip
    over: the healed ``read_at_all`` returns the file, and so does every
    rank's following ``read_at`` — without a ``latest`` round-trip (the
    retry re-planted the hint) and, on the ranks that resolved nothing,
    with a cold tree walk of their own, recorded here."""
    cluster, deployment = make_deployment()
    content = seed_content(cluster, deployment)
    fault = TestResolverDiesMidFetch()

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"rank{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=NUM_RESOLVERS)
        client = driver.client
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=FILE_SIZE)
        fault._sabotage(ctx.rank, driver)
        with pytest.raises(Exception):
            yield from handle.read_at_all(0, FILE_SIZE)
        yield from ctx.comm.barrier(ctx.rank)
        fault._heal(ctx.rank, driver)
        retry = yield from handle.read_at_all(0, FILE_SIZE)
        before = (client.tiers.shard_stats.read_rpcs, client.latest_rpcs)
        again = yield from handle.read_at(0, FILE_SIZE)
        spent = (client.tiers.shard_stats.read_rpcs - before[0],
                 client.latest_rpcs - before[1])
        yield from handle.close()
        return retry, again, before[0], spent

    result = run_mpi_job(cluster, NUM_RANKS, rank_main)
    resolvers = aggregator_ranks(NUM_RANKS, NUM_RESOLVERS)
    for rank, (retry, again, in_collectives, spent) in \
            enumerate(result.results):
        assert retry == content and again == content
        assert spent[1] == 0, f"rank {rank} lost the retry's read hint"
        if rank not in resolvers:
            assert in_collectives == 0
            assert spent[0] > 0, f"rank {rank}: whose walk warmed its cache?"
