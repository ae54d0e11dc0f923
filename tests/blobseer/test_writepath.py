"""Unit and integration tests of the write-pipeline subsystem."""

import random

import pytest

from repro.blobseer.blob import BlobDescriptor
from repro.blobseer.deployment import BlobSeerDeployment
from repro.blobseer.metadata.segment_tree import (
    pack_pieces_into_stripe_units,
    split_vector_into_pieces,
    stripe_unit_sizes,
)
from repro.blobseer.writepath import (
    StagedWrite,
    WriteBatch,
    merge_write_vectors,
)
from repro.cluster import Cluster, ClusterConfig
from repro.core.listio import IOVector
from repro.errors import InvalidRegion, StorageError
from repro.vstore.client import VectoredClient

BLOB = "wp-test"
BLOB_SIZE = 4096
CHUNK = 256


# ----------------------------------------------------------------------
# pure batch algebra
# ----------------------------------------------------------------------
class TestBatchAlgebra:
    def test_merge_concatenates_in_order(self):
        first = IOVector.for_write([(0, b"aa"), (10, b"bb")])
        second = IOVector.for_write([(20, b"cc")])
        merged = merge_write_vectors([first, second])
        assert [(r.offset, r.data) for r in merged] == [
            (0, b"aa"), (10, b"bb"), (20, b"cc")]

    def test_merge_rejects_empty_input(self):
        with pytest.raises(StorageError):
            merge_write_vectors([])
        with pytest.raises(StorageError):
            merge_write_vectors([IOVector()])
        with pytest.raises(StorageError):
            merge_write_vectors([IOVector.for_read([(0, 4)])])

    def test_batch_rejects_mixed_blobs_and_resolves_receipts(self):
        staged = [StagedWrite("a", IOVector.for_write([(0, b"x")]), index=0),
                  StagedWrite("a", IOVector.for_write([(4, b"y")]), index=1)]
        batch = WriteBatch("a", tuple(staged))
        assert len(batch) == 2
        assert batch.total_bytes() == 2
        with pytest.raises(StorageError):
            WriteBatch("b", tuple(staged))
        with pytest.raises(StorageError):
            WriteBatch("a", ())

    def test_staged_write_version_requires_commit(self):
        staged = StagedWrite("a", IOVector.for_write([(0, b"x")]), index=0)
        assert not staged.committed
        with pytest.raises(StorageError):
            staged.version


# ----------------------------------------------------------------------
# simulated deployments
# ----------------------------------------------------------------------
def make_client(**options):
    cluster = Cluster(config=options.pop("config", ClusterConfig()), seed=1)
    deployment = BlobSeerDeployment(cluster, num_providers=3,
                                    num_metadata_providers=2,
                                    chunk_size=CHUNK)
    client = VectoredClient(deployment, cluster.add_node("compute"),
                            name="wp", **options)
    run(cluster, client.create_blob(BLOB, BLOB_SIZE, chunk_size=CHUNK))
    return cluster, deployment, client


def run(cluster, generator):
    process = cluster.sim.process(generator)
    return cluster.sim.run(stop_event=process)


def split(pairs):
    """The chunk-aligned pieces ``stage`` and ``stage_ahead`` take, of a
    write of ``(offset, data)`` pairs to the test BLOB."""
    return split_vector_into_pieces(BlobDescriptor.create(BLOB, BLOB_SIZE,
                                                          CHUNK),
                                    IOVector.for_write(pairs))


class TestPipelinedCommit:
    def test_pipelined_write_roundtrips(self):
        cluster, _, client = make_client()
        receipt = run(cluster, client.vwrite(BLOB, [(0, b"p" * 300), (900, b"q" * 50)]))
        assert receipt.version == 1
        assert receipt.logical_writes == 1
        pieces = run(cluster, client.vread(BLOB, [(0, 300), (900, 50)]))
        assert pieces == [b"p" * 300, b"q" * 50]

    @staticmethod
    def write_train(client, vectors, pipelined):
        """Commit one snapshot per vector the way the write-path benchmark's
        modes do: the baseline blocks on every publication, the pipelined
        train flushes each write and waits once, at its closing barrier."""
        for pairs in vectors:
            if pipelined:
                yield from client.vwrite_queued(BLOB, pairs)
                yield from client.vflush(BLOB)
            else:
                yield from client.vwrite_and_wait(BLOB, pairs)
        if pipelined:
            yield from client.vbarrier(BLOB)

    def test_pipelined_and_baseline_store_identical_bytes(self):
        vectors = [[(0, b"a" * 100), (500, b"b" * 400)],
                   [(50, b"c" * 200)],
                   [(450, b"d" * 100), (3000, b"e" * 700)]]
        contents = {}
        for pipelined in (False, True):
            cluster, deployment, client = make_client()
            run(cluster, self.write_train(client, vectors, pipelined))
            assert deployment.version_manager.manager.latest_published(
                BLOB) == len(vectors)
            contents[pipelined] = run(
                cluster, client.vread(BLOB, [(0, BLOB_SIZE)]))[0]
        assert contents[False] == contents[True]

    def test_pipelined_write_is_not_slower(self):
        vectors = [[(offset, b"z" * 1024)] for offset in (0, 1024, 2048)]
        elapsed = {}
        for pipelined in (False, True):
            cluster, _, client = make_client()
            started = cluster.sim.now
            run(cluster, self.write_train(client, vectors, pipelined))
            elapsed[pipelined] = cluster.sim.now - started
        assert elapsed[True] <= elapsed[False]

    def test_write_control_rpc_counters(self):
        cluster, _, client = make_client()
        run(cluster, client.vwrite_and_wait(BLOB, [(0, b"x" * 64)]))
        # allocate + ticket + complete + wait_published
        assert client.write_control_rpcs == 4
        assert client.metadata_put_rpcs >= 1
        assert client.writes == 1
        assert client.logical_writes == 1


class TestStagedAhead:
    """``stage`` / ``publish``: parts uploaded ahead join one snapshot."""

    PARTS = [[(0, b"a" * 300)], [(700, b"b" * 500), (1500, b"c" * 20)],
             [(2048, b"d" * 1000)]]

    @classmethod
    def place(cls, engine):
        """Declare ``PARTS``' shape: one ``allocate`` places all three."""
        ahead = yield from engine.place_ahead(
            [stripe_unit_sizes([(offset, len(data)) for offset, data in part],
                               CHUNK) for part in cls.PARTS])
        return ahead

    def test_declared_units_are_the_ones_a_vector_splits_and_packs_into(self):
        blob = BlobDescriptor.create(BLOB, BLOB_SIZE, CHUNK)
        rng = random.Random(5)
        for _case in range(50):
            cuts = sorted(rng.sample(range(BLOB_SIZE), 2 * rng.randint(1, 9)))
            extents = [(start, end - start)
                       for start, end in zip(cuts[::2], cuts[1::2])]
            pieces = split_vector_into_pieces(blob, IOVector.for_write(
                [(offset, b"x" * size) for offset, size in extents]))
            assert stripe_unit_sizes(extents, CHUNK) == \
                pack_pieces_into_stripe_units(pieces, CHUNK)[1]

    def test_parts_staged_ahead_publish_as_the_single_commit_would(self):
        """...and cost its control RPCs: allocate, ticket, complete."""
        contents, receipts = {}, {}
        for ahead_parts in (None, 2, 3):
            cluster, deployment, client = make_client()
            engine = client.writepath

            def write():
                ahead = None
                if ahead_parts is not None:
                    ahead = yield from self.place(engine)
                    for index, part in enumerate(self.PARTS[:ahead_parts]):
                        engine.stage_ahead(BLOB, split(part), ahead, index)
                rest = [pair for part in self.PARTS[ahead_parts or 0:]
                        for pair in part]
                receipt = yield from engine.commit(
                    BLOB, IOVector.for_write(rest), ahead=ahead)
                return receipt

            receipts[ahead_parts] = run(cluster, write())
            contents[ahead_parts] = run(
                cluster, client.vread(BLOB, [(0, BLOB_SIZE)]))[0]
            manager = deployment.version_manager.manager
            assert manager.tickets_assigned == 1
            assert manager.latest_published(BLOB) == 1
            assert client.write_control_rpcs == 3
        assert contents[2] == contents[None] and contents[3] == contents[None]
        for receipt in receipts.values():
            assert (receipt.bytes_written, receipt.chunks,
                    receipt.metadata_nodes) == (
                receipts[None].bytes_written, receipts[None].chunks,
                receipts[None].metadata_nodes)

    def commit_two_ahead(self, engine):
        """``PARTS`` placed together: two staged ahead, the third committed."""
        ahead = yield from self.place(engine)
        for index, part in enumerate(self.PARTS[:2]):
            engine.stage_ahead(BLOB, split(part), ahead, index)
        receipt = yield from engine.commit(
            BLOB, IOVector.for_write(self.PARTS[2]), ahead=ahead)
        return receipt

    @staticmethod
    def record_uploads(cluster, deployment):
        """The instants every ``put_chunks`` handler finished storing."""
        stored_at = []
        for provider in deployment.data_providers.values():
            def recording(items, _real=provider.put_chunks):
                stored = yield from _real(items)
                stored_at.append(cluster.sim.now)
                return stored
            provider.put_chunks = recording
        return stored_at

    @staticmethod
    def assert_aborted_without_a_trace(deployment):
        manager = deployment.version_manager.manager
        assert (manager.tickets_assigned, manager.tickets_aborted) == (1, 1)
        assert manager.pending_versions(BLOB) == []
        assert deployment.metadata_store.node_count() == 0

    def test_the_metadata_goes_down_while_the_parts_upload(self):
        """A commit placed ahead stores its nodes as soon as it holds the
        ticket and every part's placed pieces: its ``put_nodes`` have all
        returned before the last upload is stored — and it still costs the
        single commit's control RPCs and stores the single commit's bytes."""
        cluster, deployment, client = make_client()
        uploads = self.record_uploads(cluster, deployment)
        engine = client.writepath
        real_store_nodes = engine._store_nodes
        nodes_stored_at = []

        def timed_store_nodes(blob, nodes, trace_parent=None):
            yield from real_store_nodes(blob, nodes, trace_parent=trace_parent)
            nodes_stored_at.append(cluster.sim.now)

        engine._store_nodes = timed_store_nodes
        run(cluster, self.commit_two_ahead(engine))
        assert len(nodes_stored_at) == 1
        assert nodes_stored_at[0] < max(uploads)
        assert client.write_control_rpcs == 3
        assert deployment.version_manager.manager.latest_published(BLOB) == 1

        single_cluster, _, single = make_client()
        run(single_cluster, single.writepath.commit(BLOB, IOVector.for_write(
            [pair for part in self.PARTS for pair in part])))
        assert run(cluster, client.vread(BLOB, [(0, BLOB_SIZE)])) == run(
            single_cluster, single.vread(BLOB, [(0, BLOB_SIZE)]))

    def test_a_metadata_failure_joins_the_uploads_then_rolls_back(self):
        """A shard failing ``put_nodes`` while the parts still upload: the
        commit waits for every upload, removes the nodes, then releases the
        ticket — nothing reachable, nothing pending."""
        from repro.errors import ProviderUnavailable
        cluster, deployment, client = make_client()
        uploads = self.record_uploads(cluster, deployment)
        broken = deployment.metadata_providers[1]
        manager = deployment.version_manager
        aborted_at = []

        def down(nodes):
            raise ProviderUnavailable("metadata shard down")
            yield  # pragma: no cover - generator handler shape

        def timed_abort(blob_id, version, _real=manager.abort):
            aborted_at.append(cluster.sim.now)
            latest = yield from _real(blob_id, version)
            return latest

        broken.put_nodes = down
        manager.abort = timed_abort
        with pytest.raises(ProviderUnavailable, match="shard down"):
            run(cluster, self.commit_two_ahead(client.writepath))
        self.assert_aborted_without_a_trace(deployment)
        assert uploads and max(uploads) < aborted_at[0]
        assert client.chunk_cache.resident_bytes == 0

    def test_an_upload_failing_after_the_nodes_are_stored_rolls_back(self):
        """The nodes are stored; then the last part's upload fails at a
        provider: the stored nodes are removed and the ticket released."""
        cluster, deployment, client = make_client()
        nodes_when_failed = []
        for provider in deployment.data_providers.values():
            def failing(items, _real=provider.put_chunks):
                stored = yield from _real(items)
                if any(len(data) == 232 for _key, data in items):
                    # the last piece of the commit's own part (1000 bytes
                    # from offset 2048)
                    nodes_when_failed.append(
                        deployment.metadata_store.node_count())
                    raise StorageError("provider lost the last part")
                return stored
            provider.put_chunks = failing
        with pytest.raises(StorageError, match="last part"):
            run(cluster, self.commit_two_ahead(client.writepath))
        assert nodes_when_failed and nodes_when_failed[0] > 0
        self.assert_aborted_without_a_trace(deployment)
        assert client.chunk_cache.resident_bytes == 0

    def test_a_part_that_is_not_what_was_declared_places_itself(self):
        """A peer that failed to deliver leaves a part short of its
        description: the slice reserved for it no longer fits, so the staging
        asks again rather than misplace (one extra ``allocate``)."""
        cluster, deployment, client = make_client()
        engine = client.writepath

        def write():
            ahead = yield from self.place(engine)
            engine.stage_ahead(BLOB, split(self.PARTS[0]), ahead, 0)
            engine.stage_ahead(BLOB, split(self.PARTS[1][:1]), ahead, 1)
            receipt = yield from engine.commit(
                BLOB, IOVector.for_write(self.PARTS[2]), ahead=ahead)
            return receipt

        receipt = run(cluster, write())
        assert receipt.bytes_written == 300 + 500 + 1000
        assert client.write_control_rpcs == 4
        assert run(cluster, client.vread(BLOB, [(700, 500)]))[0] == b"b" * 500

    def test_parts_resolve_overlaps_in_the_order_they_were_staged(self):
        """Each staging numbers its requests from 0; the commit renumbers
        the joined pieces, so a later part — and the commit's own vector,
        which comes last — wins the bytes it shares with an earlier one."""
        cluster, _, client = make_client()
        engine = client.writepath
        parts = [[(0, b"a" * 40), (100, b"a" * 40)], [(20, b"b" * 100)],
                 [(110, b"c" * 20)]]

        def write():
            ahead = yield from engine.place_ahead(
                [stripe_unit_sizes([(offset, len(data))
                                    for offset, data in part], CHUNK)
                 for part in parts])
            for index, part in enumerate(parts[:2]):
                engine.stage_ahead(BLOB, split(part), ahead, index)
            yield from engine.commit(
                BLOB, IOVector.for_write(parts[2]), ahead=ahead)

        run(cluster, write())
        assert client.writes == 1
        assert run(cluster, client.vread(BLOB, [(0, 140)]))[0] == \
            b"a" * 20 + b"b" * 90 + b"c" * 20 + b"a" * 10

    def test_stage_returns_placed_pieces_without_their_payload(self):
        cluster, deployment, client = make_client()
        pieces, ticket = run(cluster, client.writepath.stage(
            BLOB, split(self.PARTS[1])))
        assert ticket is None
        assert deployment.version_manager.manager.tickets_assigned == 0
        assert [piece.length for piece in pieces] == [68, 256, 176, 20]
        for piece in pieces:
            assert piece.data is None
            stored = deployment.data_provider(piece.provider_id).store
            assert len(stored.get_chunk(piece.chunk)) == piece.length

    @pytest.mark.parametrize("idle", [1.0, 0.0],
                             ids=["commit-later", "commit-at-once"])
    def test_a_staging_that_dies_fails_the_commit_not_the_simulator(self,
                                                                     idle):
        """Nobody waits on a staging while it runs; its failure — before
        its part is placed — is a value until the commit joins it, which
        then releases the ticket it had taken alongside its own upload.
        The commit does not hang on the placement that never comes, whether
        the failure sat unobserved (``idle``) or the commit is already
        waiting for the parts."""
        cluster, deployment, client = make_client()
        engine = client.writepath
        real_stage = engine.stage
        calls = []

        def dying_stage(blob_id, pieces, **kwargs):
            calls.append(len(calls))
            if len(calls) == 2:
                raise StorageError("provider lost under the second part")
            staged = yield from real_stage(blob_id, pieces, **kwargs)
            return staged

        engine.stage = dying_stage

        def write():
            ahead = yield from self.place(engine)
            for index, part in enumerate(self.PARTS[:2]):
                engine.stage_ahead(BLOB, split(part), ahead, index)
            if idle:
                # far longer than any upload: the failure sits unobserved
                yield cluster.sim.timeout(idle)
                assert isinstance(ahead.stagings[1].value, StorageError)
            yield from engine.commit(
                BLOB, IOVector.for_write(self.PARTS[2]), ahead=ahead)

        with pytest.raises(StorageError, match="second part"):
            run(cluster, write())
        self.assert_aborted_without_a_trace(deployment)
        # the part staged ahead (2 chunks) and the commit's own (4) were
        # uploaded and kept; the abort dropped both from the chunk cache
        assert sum(provider.store.chunk_count()
                   for provider in deployment.data_providers.values()) == 6
        assert client.chunk_cache.resident_bytes == 0

    def test_a_commit_needs_a_payload_here_or_ahead(self):
        cluster, _, client = make_client()
        with pytest.raises(StorageError):
            run(cluster, client.writepath.commit(BLOB, IOVector()))
        with pytest.raises(StorageError):
            run(cluster, client.coalescer.enqueue(BLOB, IOVector()))

        def nothing_arrived():
            ahead = yield from self.place(client.writepath)
            yield from client.writepath.commit(BLOB, IOVector(), ahead=ahead)

        with pytest.raises(StorageError):
            run(cluster, nothing_arrived())

    def test_a_write_of_zero_size_requests_fails_before_any_rpc(self):
        cluster, deployment, client = make_client(
            config=ClusterConfig(tracing=True))
        before = len(cluster.obs.tracer.spans)
        with pytest.raises(InvalidRegion):
            run(cluster, client.writepath.commit(
                BLOB, IOVector.for_write([(0, b""), (5, b"")])))
        assert [span.name for span in cluster.obs.tracer.spans[before:]
                if span.cat == "rpc"] == []
        assert client.write_control_rpcs == 0
        manager = deployment.version_manager.manager
        assert (manager.tickets_assigned, manager.tickets_aborted) == (0, 0)

    def test_a_zero_size_last_part_of_a_write_placed_ahead_commits(self):
        cluster, deployment, client = make_client()
        engine = client.writepath

        def write():
            ahead = yield from self.place(engine)
            for index, part in enumerate(self.PARTS):
                engine.stage_ahead(BLOB, split(part), ahead, index)
            receipt = yield from engine.commit(
                BLOB, IOVector.for_write([(0, b""), (5, b"")]), ahead=ahead)
            return receipt

        receipt = run(cluster, write())
        assert receipt.version == 1
        assert receipt.bytes_written == sum(
            len(data) for part in self.PARTS for _offset, data in part)
        assert deployment.version_manager.manager.latest_published(BLOB) == 1


class TestWriteThroughCache:
    def test_writer_cache_is_primed_with_its_leaves_only(self):
        """A read looks up leaves only, so the writer keeps its leaves and
        none of the interior nodes it published."""
        cluster, _, client = make_client()
        receipt = run(cluster, client.vwrite_and_wait(BLOB, [(0, b"w" * 600)]))
        assert client.cache_primed_nodes == len(receipt.leaves) \
            < receipt.metadata_nodes
        assert all(node.is_leaf and hint == receipt.version
                   for (_offset, _size, hint), node in receipt.leaves)
        assert len(client.metadata_cache) == len(receipt.leaves)

    def test_the_receipt_hands_back_exactly_the_stored_leaves(self):
        cluster, deployment, client = make_client()
        receipt = run(cluster, client.vwrite_and_wait(
            BLOB, [(0, b"w" * 600), (5 * CHUNK + 3, b"x" * 10)]))
        stored = sorted(
            node.key for shard in deployment.metadata_store.shards
            for nodes in shard._nodes.values() for node in nodes
            if node.is_leaf and node.key.version == receipt.version)
        assert sorted(node.key for _key, node in receipt.leaves) == stored
        assert sorted(key for key, _node in receipt.leaves) == [
            (key.offset, key.size, key.version) for key in stored]

    def test_without_write_through_the_receipt_carries_no_leaves(self):
        cluster, _, client = make_client(write_through_cache=False)
        receipt = run(cluster, client.vwrite_and_wait(BLOB, [(0, b"w" * 600)]))
        assert receipt.leaves == ()

    def test_read_after_write_hits_from_the_first_read(self):
        cluster, _, client = make_client()
        receipt = run(cluster, client.vwrite_and_wait(BLOB, [(0, b"w" * 600)]))
        before = client.metadata_cache.stats.hits
        run(cluster, client.vread(BLOB, [(0, 600)], version=receipt.version))
        assert client.metadata_cache.stats.hits > before
        # the whole snapshot was self-published: zero node fetches needed
        assert client.tiers.shard_stats.read_rpcs == 0

    def test_write_through_can_be_disabled(self):
        cluster, _, client = make_client(write_through_cache=False)
        run(cluster, client.vwrite_and_wait(BLOB, [(0, b"w" * 600)]))
        assert client.cache_primed_nodes == 0
        assert len(client.metadata_cache) == 0

    def test_version_hint_table_tracks_publication(self):
        cluster, _, client = make_client()
        assert client.version_hints == {}
        run(cluster, client.vwrite_and_wait(BLOB, [(0, b"w" * 10)]))
        assert client.version_hints[BLOB] == 1
        run(cluster, client.vwrite_and_wait(BLOB, [(64, b"v" * 10)]))
        assert client.version_hints[BLOB] == 2


class TestCoalescer:
    def test_queued_writes_are_invisible_until_barrier(self):
        cluster, deployment, client = make_client()
        staged = run(cluster, client.vwrite_queued(BLOB, [(0, b"q" * 32)]))
        assert not staged.committed
        assert client.coalescer.pending_writes(BLOB) == 1
        assert deployment.version_manager.manager.latest_published(BLOB) == 0
        receipts = run(cluster, client.vbarrier(BLOB))
        assert staged.committed and staged.version == receipts[0].version
        assert deployment.version_manager.manager.latest_published(BLOB) == 1
        pieces = run(cluster, client.vread(BLOB, [(0, 32)]))
        assert pieces == [b"q" * 32]

    def test_coalesced_batch_is_one_snapshot_applied_in_queue_order(self):
        cluster, deployment, client = make_client()

        def scenario():
            yield from client.vwrite_queued(BLOB, [(0, b"1" * 100)])
            yield from client.vwrite_queued(BLOB, [(50, b"2" * 100)])
            yield from client.vwrite_queued(BLOB, [(25, b"3" * 50)])
            receipts = yield from client.vbarrier(BLOB)
            return receipts

        receipts = run(cluster, scenario())
        assert len(receipts) == 1
        assert receipts[0].logical_writes == 3
        assert deployment.version_manager.manager.latest_published(BLOB) == 1
        data = run(cluster, client.vread(BLOB, [(0, 150)]))[0]
        # later queued writes win on overlap: serial application order
        expected = bytearray(150)
        expected[0:100] = b"1" * 100
        expected[50:150] = b"2" * 100
        expected[25:75] = b"3" * 50
        assert data == bytes(expected)
        assert client.coalescer.stats.coalescing_factor == 3.0

    def test_barrier_without_queued_writes_is_a_noop(self):
        cluster, _, client = make_client()
        receipts = run(cluster, client.vbarrier(BLOB))
        assert receipts == []
        assert client.writes == 0

    def test_deferred_completes_are_drained_by_barrier(self):
        cluster, _, client = make_client()

        def scenario():
            yield from client.vwrite_queued(BLOB, [(0, b"a" * 8)])
            yield from client.vflush(BLOB)
            yield from client.vwrite_queued(BLOB, [(16, b"b" * 8)])
            yield from client.vflush(BLOB)
            outstanding = client.writepath.outstanding(BLOB)
            yield from client.vbarrier(BLOB)
            return outstanding

        outstanding = run(cluster, scenario())
        assert outstanding >= 1  # at least one complete was still in flight
        assert client.writepath.outstanding() == 0
        assert client.version_hints[BLOB] == 2

    def test_enqueue_rejects_empty_and_read_vectors(self):
        cluster, _, client = make_client()
        with pytest.raises(StorageError):
            run(cluster, client.vwrite_queued(BLOB, []))

    def test_immediate_write_flushes_queued_writes_first(self):
        """Program order: a direct vwrite must not overtake queued writes."""
        cluster, _, client = make_client()

        def scenario():
            yield from client.vwrite_queued(BLOB, [(0, b"old")])
            yield from client.vwrite(BLOB, [(0, b"new")])
            yield from client.vbarrier(BLOB)
            piece = yield from client.vread(BLOB, [(0, 3)])
            return piece[0]

        data = run(cluster, scenario())
        # the queued write took the earlier ticket; the later direct write wins
        assert data == b"new"
        assert client.writes == 2 and client.logical_writes == 2


class TestFlushPoints:
    """The queue commits at MPI's flush points only: no write count, byte
    volume or elapsed time flushes it behind the rank's back."""

    def test_no_write_count_flushes_the_queue(self):
        cluster, _, client = make_client()

        def scenario():
            for index in range(64):
                yield from client.vwrite_queued(
                    BLOB, [(index * 8, bytes([index]) * 8)])
            assert client.coalescer.pending_writes(BLOB) == 64
            assert client.writes == 0
            yield from client.vbarrier(BLOB)

        run(cluster, scenario())
        assert client.coalescer.stats.batches == 1
        assert client.coalescer.stats.coalesced_writes == 64
        assert client.writes == 1 and client.logical_writes == 64

    def test_no_byte_volume_flushes_the_queue(self):
        cluster, deployment, client = make_client()

        def scenario():
            yield from client.vwrite_queued(BLOB, [(0, b"a" * 2048)])
            yield from client.vwrite_queued(BLOB, [(2048, b"b" * 2048)])
            assert client.coalescer.pending_writes(BLOB) == 2
            assert deployment.version_manager.manager.latest_published(
                BLOB) == 0
            yield from client.vbarrier(BLOB)

        run(cluster, scenario())
        assert client.writes == 1
        assert client.coalescer.stats.coalesced_bytes == BLOB_SIZE

    def test_a_quiet_producer_batch_waits_for_its_flush_point(self):
        """However long the producer stays quiet, nothing publishes until
        it reaches a flush point."""
        cluster, deployment, client = make_client()
        manager = deployment.version_manager.manager

        def producer():
            yield from client.vwrite_queued(BLOB, [(0, b"tick")])
            yield cluster.sim.timeout(10.0)
            assert manager.latest_published(BLOB) == 0
            assert client.coalescer.pending_writes(BLOB) == 1
            yield from client.vbarrier(BLOB)

        run(cluster, producer())
        assert manager.latest_published(BLOB) == 1
        assert run(cluster, client.vread(BLOB, [(0, 4)])) == [b"tick"]

    def test_flush_commits_the_whole_accumulated_batch(self):
        cluster, deployment, client = make_client()

        def producer():
            for step in range(3):
                yield from client.vwrite_queued(
                    BLOB, [(step * 16, bytes([65 + step]) * 16)])
                yield cluster.sim.timeout(0.01)
            yield from client.vbarrier(BLOB)

        run(cluster, producer())
        assert deployment.version_manager.manager.latest_published(BLOB) == 1
        assert client.coalescer.stats.batches == 1
        assert client.coalescer.stats.coalesced_writes == 3
        assert run(cluster, client.vread(BLOB, [(0, 48)])) \
            == [b"A" * 16 + b"B" * 16 + b"C" * 16]

    def test_each_flush_starts_a_fresh_batch(self):
        cluster, deployment, client = make_client()

        def producer():
            yield from client.vwrite_queued(BLOB, [(0, b"one")])
            first = yield from client.vflush(BLOB)
            yield from client.vwrite_queued(BLOB, [(16, b"two")])
            assert client.coalescer.pending_writes(BLOB) == 1
            second = yield from client.vbarrier(BLOB)
            return first, second

        first, second = run(cluster, producer())
        assert [receipt.version for receipt in first] == [1]
        assert [receipt.version for receipt in second] == [2]
        assert deployment.version_manager.manager.latest_published(BLOB) == 2
        assert run(cluster, client.vread(BLOB, [(0, 3), (16, 3)])) \
            == [b"one", b"two"]

    def test_a_second_flush_finds_nothing_left_to_commit(self):
        cluster, deployment, client = make_client()

        def scenario():
            yield from client.vwrite_queued(BLOB, [(0, b"once" * 4)])
            first = yield from client.vflush(BLOB)
            second = yield from client.vflush(BLOB)
            yield from client.vbarrier(BLOB)
            return first, second

        first, second = run(cluster, scenario())
        assert len(first) == 1 and second == []
        assert client.writes == 1
        assert client.coalescer.stats.batches == 1
        assert deployment.version_manager.manager.latest_published(BLOB) == 1

    def test_a_write_queued_during_a_commit_waits_for_the_next_flush(self):
        """Writes staged in an in-flight commit leave the queue with it; a
        write queued while that commit's RPCs are in flight stays queued."""
        cluster, _, client = make_client()

        def first_batch():
            for index in range(3):
                yield from client.vwrite_queued(
                    BLOB, [(index * 16, bytes([65 + index]) * 16)])
            yield from client.vflush(BLOB)

        def late_write():
            yield cluster.sim.timeout(1e-4)  # inside the commit's RPC window
            yield from client.vwrite_queued(BLOB, [(256, b"late" * 4)])

        processes = [cluster.sim.process(first_batch()),
                     cluster.sim.process(late_write())]

        def driver():
            yield cluster.sim.all_of(processes)
            yield cluster.sim.timeout(0.1)

        cluster.sim.run(stop_event=cluster.sim.process(driver()))
        assert client.coalescer.pending_writes(BLOB) == 1
        assert client.writes == 1
        assert client.coalescer.stats.coalesced_writes == 3
        run(cluster, client.vbarrier(BLOB))
        assert client.writes == 2
        assert run(cluster, client.vread(BLOB, [(256, 16)])) == [b"late" * 4]

    def test_a_global_flush_commits_one_batch_per_blob(self):
        cluster, _, client = make_client()
        other = "wp-other"

        def scenario():
            yield from client.create_blob(other, BLOB_SIZE, chunk_size=CHUNK)
            yield from client.vwrite_queued(BLOB, [(0, b"mine")])
            yield from client.vwrite_queued(other, [(0, b"them")])
            yield from client.vflush(BLOB)
            assert client.coalescer.pending_writes(BLOB) == 0
            assert client.coalescer.pending_writes(other) == 1
            yield from client.vwrite_queued(BLOB, [(8, b"more")])
            receipts = yield from client.vbarrier()
            return receipts

        receipts = run(cluster, scenario())
        assert sorted(receipt.blob_id for receipt in receipts) \
            == sorted([BLOB, other])
        assert client.coalescer.pending_writes() == 0
        assert run(cluster, client.vread(other, [(0, 4)])) == [b"them"]
        assert run(cluster, client.vread(BLOB, [(0, 4), (8, 4)])) \
            == [b"mine", b"more"]


class TestCommitFailureRecovery:
    def test_failed_flush_keeps_the_queue_staged(self):
        """A commit failure must not discard queued writes (retryable)."""
        cluster, deployment, client = make_client()
        run(cluster, client.vwrite_queued(BLOB, [(0, b"keep" * 8)]))
        for provider_id in list(deployment.data_providers):
            deployment.fail_provider(provider_id)
        with pytest.raises(Exception):
            run(cluster, client.vflush(BLOB))
        assert client.coalescer.pending_writes(BLOB) == 1
        for provider_id in list(deployment.data_providers):
            deployment.recover_provider(provider_id)
        receipts = run(cluster, client.vbarrier(BLOB))
        assert len(receipts) == 1
        assert run(cluster, client.vread(BLOB, [(0, 32)])) == [b"keep" * 8]

    def test_enqueue_validates_like_an_immediate_write(self):
        """Out-of-range queued writes fail at their own call site."""
        from repro.errors import OutOfBounds
        cluster, _, client = make_client()
        with pytest.raises(OutOfBounds):
            run(cluster, client.vwrite_queued(BLOB, [(BLOB_SIZE, b"over")]))
        assert client.coalescer.pending_writes(BLOB) == 0

    def test_failed_pipelined_write_releases_its_ticket(self):
        """An upload failure must not stall publication for other writers."""
        from repro.errors import ProviderUnavailable
        cluster = Cluster(config=ClusterConfig(), seed=1)
        deployment = BlobSeerDeployment(cluster, num_providers=2,
                                        num_metadata_providers=1,
                                        chunk_size=64 * 1024)
        writer_a = VectoredClient(deployment, cluster.add_node("a"), name="a")
        writer_b = VectoredClient(deployment, cluster.add_node("b"), name="b")
        run(cluster, writer_a.create_blob(BLOB, 256 * 1024))

        def doomed_writer():
            # two 64 KiB chunks spread over both providers; data1 dies while
            # the uploads (and the overlapped ticket RPC) are in flight
            try:
                yield from writer_a.vwrite(BLOB, [(0, b"x" * (128 * 1024))])
            except ProviderUnavailable:
                return "failed"
            return "ok"

        def fail_mid_upload():
            yield cluster.sim.timeout(3e-4)  # after allocate, before upload ends
            deployment.fail_provider("bs-data1")

        def scenario():
            doomed = cluster.sim.process(doomed_writer())
            cluster.sim.process(fail_mid_upload())
            yield doomed
            outcome = doomed.value
            # the failed writer's ticket was released, so a later writer
            # can still publish (this hangs forever without the abort)
            receipt = yield from writer_b.vwrite_and_wait(
                BLOB, [(0, b"y" * 100)])
            return outcome, receipt.version

        process = cluster.sim.process(scenario())
        outcome, version = cluster.sim.run(stop_event=process)
        assert outcome == "failed"
        assert version == 2  # ticket 1 was assigned, aborted, and skipped
        assert deployment.version_manager.manager.tickets_aborted == 1
        data = run(cluster, writer_b.vread(BLOB, [(0, 100)]))
        assert data == [b"y" * 100]

    def test_metadata_store_failure_rolls_back_and_releases_the_ticket(self):
        """A put_nodes failure must not leave torn nodes or a stuck ticket."""
        from repro.errors import ProviderUnavailable
        cluster, deployment, client = make_client()
        other = VectoredClient(deployment, cluster.add_node("other"),
                               name="other")
        broken = deployment.metadata_providers[1]

        def down(nodes):
            raise ProviderUnavailable("metadata shard down")
            yield  # pragma: no cover - generator handler shape

        broken.put_nodes = down
        with pytest.raises(ProviderUnavailable):
            run(cluster, client.vwrite(BLOB, [(0, b"torn" * 200)]))
        del broken.put_nodes  # shard comes back
        # no partial nodes survived the rollback on the healthy shard
        assert deployment.metadata_store.node_count() == 0
        assert deployment.version_manager.manager.tickets_aborted == 1
        # a later writer publishes and reads back normally (no stall)
        receipt = run(cluster, other.vwrite_and_wait(BLOB, [(0, b"y" * 50)]))
        assert receipt.version == 2
        assert run(cluster, other.vread(BLOB, [(0, 50)])) == [b"y" * 50]
        # the aborted version reads as its predecessor (all zeros)
        assert run(cluster, other.vread(BLOB, [(0, 8)], version=1)) \
            == [b"\x00" * 8]

    def test_version_manager_abort_unit(self):
        from repro.blobseer.blob import BlobDescriptor
        from repro.blobseer.version_manager import VersionManager
        from repro.errors import StorageError as SE, VersionNotFound as VNF
        manager = VersionManager()
        manager.create_blob(BlobDescriptor.create("b", 1024, 64))
        v1, _ = manager.assign_ticket("b")
        v2, _ = manager.assign_ticket("b")
        with pytest.raises(VNF):
            manager.abort("b", 99)
        latest, newly = manager.abort("b", v1)
        assert latest == 1 and newly == [1]
        assert manager.snapshots_published == 0  # aborted versions don't count
        latest, newly = manager.complete("b", v2)
        assert latest == 2 and newly == [2]
        assert manager.snapshots_published == 1
        with pytest.raises(SE):
            manager.abort("b", v2)  # already published


class TestCacheCapacityConfig:
    def test_cluster_config_default_capacity_applies(self):
        config = ClusterConfig(metadata_cache_capacity=4)
        cluster, _, client = make_client(config=config)
        assert client.metadata_cache.capacity == 4
        run(cluster, client.vwrite_and_wait(BLOB, [(0, b"w" * 1024)]))
        assert len(client.metadata_cache) <= 4

    def test_client_option_overrides_config(self):
        config = ClusterConfig(metadata_cache_capacity=4)
        cluster = Cluster(config=config, seed=1)
        deployment = BlobSeerDeployment(cluster, num_providers=2,
                                        num_metadata_providers=1,
                                        chunk_size=CHUNK)
        client = VectoredClient(deployment, cluster.add_node("compute"),
                                metadata_cache_capacity=9)
        assert client.metadata_cache.capacity == 9
        # an explicit None forces unbounded even against a bounded default
        unbounded = VectoredClient(deployment, cluster.add_node("compute2"),
                                   metadata_cache_capacity=None)
        assert unbounded.metadata_cache.capacity is None


class TestReadHints:
    """vread(version=None) consumes piggybacked watermarks (elided latest RPC)."""

    def test_barrier_plants_a_hint_that_elides_the_latest_rpc(self):
        cluster, _, client = make_client()

        def scenario():
            yield from client.vwrite_queued(BLOB, [(0, b"data")])
            yield from client.vbarrier(BLOB)
            piece = yield from client.vread(BLOB, [(0, 4)])
            return piece[0]

        assert run(cluster, scenario()) == b"data"
        assert client.latest_rpcs_elided == 1
        # one-shot: the next read goes back to the version manager
        assert run(cluster, client.vread(BLOB, [(0, 4)])) == [b"data"]
        assert client.latest_rpcs_elided == 1

    def test_a_barrier_drops_stale_hints_so_other_writers_stay_visible(self):
        """sync->barrier->sync visibility: a hint planted before the fence
        must not hide data another client published in between."""
        cluster, deployment, client = make_client()
        other = VectoredClient(deployment, cluster.add_node("other"),
                               name="other")

        def scenario():
            yield from client.vwrite_queued(BLOB, [(0, b"AAAA")])
            yield from client.vbarrier(BLOB)       # plants hint at v1
            yield from other.vwrite_and_wait(BLOB, [(0, b"BBBB")])  # v2
            yield from client.vbarrier(BLOB)       # fence: flushes nothing,
                                                   # drops the stale hint
            piece = yield from client.vread(BLOB, [(0, 4)])
            return piece[0]

        assert run(cluster, scenario()) == b"BBBB"
        # only the fenced read went to the version manager
        assert client.latest_rpcs_elided == 0

    def test_note_collective_commit_plants_a_consumable_hint(self):
        cluster, _, client = make_client()
        run(cluster, client.vwrite_and_wait(BLOB, [(0, b"coll")]))
        # simulate the watermark share that closes a collective write
        client.note_collective_commit(BLOB, 1)
        assert run(cluster, client.vread(BLOB, [(0, 4)])) == [b"coll"]
        assert client.latest_rpcs_elided == 1

    def test_own_immediate_write_invalidates_a_stale_hint(self):
        """Read-your-writes: a commit after a planted hint must not let the
        next default read serve the pre-commit snapshot."""
        cluster, _, client = make_client()

        def scenario():
            yield from client.vwrite_queued(BLOB, [(0, b"AAAA")])
            yield from client.vbarrier(BLOB)           # plants hint at v1
            yield from client.vwrite_and_wait(BLOB, [(0, b"BBBB")])  # v2
            piece = yield from client.vread(BLOB, [(0, 4)])
            return piece[0]

        assert run(cluster, scenario()) == b"BBBB"
        assert client.latest_rpcs_elided == 0


    def test_hint_never_serves_older_than_an_observed_watermark(self):
        """Monotonic reads: after this client observes a newer published
        version, a consumed hint must resolve to at least that version."""
        cluster, deployment, client = make_client()
        other = VectoredClient(deployment, cluster.add_node("other2"),
                               name="other2")

        def scenario():
            yield from client.vwrite_queued(BLOB, [(0, b"OLD!")])
            yield from client.vbarrier(BLOB)        # plants hint at v1
            yield from other.vwrite_and_wait(BLOB, [(0, b"NEW!")])  # v2
            latest = yield from client.latest_version(BLOB)  # observes 2
            piece = yield from client.vread(BLOB, [(0, 4)])
            return latest, piece[0]

        latest, data = run(cluster, scenario())
        assert latest == 2
        assert data == b"NEW!"  # the stale v1 hint resolved up to v2
        assert client.latest_rpcs_elided == 1  # still elided, now safely

    def test_global_barrier_drops_hints_for_blobs_it_never_committed(self):
        """vbarrier() with no blob argument is a global visibility fence: it
        must clear hints planted by collective commits even on clients whose
        own coalescer never committed to that BLOB."""
        cluster, deployment, client = make_client()
        other = VectoredClient(deployment, cluster.add_node("other3"),
                               name="other3")

        def scenario():
            yield from other.vwrite_and_wait(BLOB, [(0, b"v1v1")])
            # simulate a collective watermark share on a non-aggregator
            # client: a hint exists although this client never committed
            client.note_collective_commit(BLOB, 1)
            yield from other.vwrite_and_wait(BLOB, [(0, b"v2v2")])
            yield from client.vbarrier()           # global fence, no args
            piece = yield from client.vread(BLOB, [(0, 4)])
            return piece[0]

        assert run(cluster, scenario()) == b"v2v2"
        assert client.latest_rpcs_elided == 0
