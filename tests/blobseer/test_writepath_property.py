"""Property-based tests of the write pipeline.

Two guarantees are exercised under randomized write sequences:

1. **Equivalence** — committing a sequence of vectored writes through the
   coalescer (arbitrary batch boundaries, pipelined commits, deferred
   completions) yields snapshots byte-identical to a model that applies the
   same writes serially; checked at *every* published version, not just the
   final one.
2. **Ticket order under interleaved writers** — with several clients
   queueing and flushing concurrently, every published snapshot still equals
   the serial application of the committed batches in version-ticket order
   (the paper's MPI-atomicity argument, lifted to batch granularity).
"""

from hypothesis import given, settings, strategies as st

from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.vstore.client import VectoredClient

BLOB = "prop"
BLOB_SIZE = 512
CHUNK = 32


@st.composite
def write_sequences(draw, max_writes=6, max_regions=3, max_region_size=48):
    """A sequence of vectored writes plus random batch boundaries."""
    write_count = draw(st.integers(1, max_writes))
    writes = []
    for index in range(write_count):
        region_count = draw(st.integers(1, max_regions))
        pairs = []
        for _ in range(region_count):
            offset = draw(st.integers(0, BLOB_SIZE - max_region_size))
            size = draw(st.integers(1, max_region_size))
            fill = bytes([33 + (index * 7) % 90]) * size
            pairs.append((offset, fill))
        writes.append(pairs)
    # flush after write i iff boundaries[i] (the last batch always flushes)
    boundaries = [draw(st.booleans()) for _ in writes]
    return writes, boundaries


def apply_serially(initial, writes):
    """Reference model: apply whole vectored writes in order."""
    content = bytearray(initial)
    for pairs in writes:
        for offset, payload in pairs:
            content[offset:offset + len(payload)] = payload
    return bytes(content)


def make_deployment(num_clients=1):
    cluster = Cluster(config=ClusterConfig(network_latency=1e-5), seed=7)
    deployment = BlobSeerDeployment(cluster, num_providers=2,
                                    num_metadata_providers=2,
                                    chunk_size=CHUNK)
    clients = [VectoredClient(deployment, cluster.add_node(f"rank{i}"),
                              name=f"rank{i}")
               for i in range(num_clients)]
    return cluster, deployment, clients


@settings(max_examples=25, deadline=None)
@given(sequence=write_sequences())
def test_coalesced_commits_equal_serial_application_at_every_version(sequence):
    writes, boundaries = sequence
    cluster, deployment, (client,) = make_deployment()

    def scenario():
        yield from client.create_blob(BLOB, BLOB_SIZE, chunk_size=CHUNK)
        batches = []  # list of write-index lists, one per flushed batch
        current = []
        for index, pairs in enumerate(writes):
            yield from client.vwrite_queued(BLOB, pairs)
            current.append(index)
            if boundaries[index]:
                yield from client.vflush(BLOB)
                batches.append(current)
                current = []
        yield from client.vbarrier(BLOB)
        if current:
            batches.append(current)
        snapshots = {}
        latest = deployment.version_manager.manager.latest_published(BLOB)
        for version in range(1, latest + 1):
            piece = yield from client.vread(BLOB, [(0, BLOB_SIZE)], version)
            snapshots[version] = piece[0]
        return batches, snapshots

    process = cluster.sim.process(scenario())
    batches, snapshots = cluster.sim.run(stop_event=process)

    # every published version equals the serial application of the writes
    # of all batches committed up to it, in queue order
    assert len(snapshots) == len(batches)
    done = []
    for version, batch in enumerate(batches, start=1):
        done.extend(batch)
        expected = apply_serially(b"\x00" * BLOB_SIZE,
                                  [writes[i] for i in done])
        assert snapshots[version] == expected, (
            f"version {version} diverges from serial application")


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_interleaved_coalescing_writers_publish_in_ticket_order(data):
    writer_count = data.draw(st.integers(2, 3), label="writers")
    sequences = [data.draw(write_sequences(max_writes=4), label=f"writer{i}")
                 for i in range(writer_count)]
    cluster, deployment, clients = make_deployment(num_clients=writer_count)

    batch_contents = {}  # version -> list of write pair-lists, queue order

    def writer(rank):
        client = clients[rank]
        writes, boundaries = sequences[rank]
        current = []
        for index, pairs in enumerate(writes):
            # per-writer jitter interleaves enqueues and flushes across ranks
            delay = float(cluster.sim.rng.stream(f"w{rank}.{index}").uniform(
                0, 1e-3))
            yield cluster.sim.timeout(delay)
            yield from client.vwrite_queued(BLOB, pairs)
            current.append(pairs)
            if boundaries[index]:
                receipts = yield from client.vflush(BLOB)
                batch_contents[receipts[-1].version] = list(current)
                current = []
        receipts = yield from client.vbarrier(BLOB)
        if current:
            batch_contents[receipts[-1].version] = list(current)

    def scenario():
        yield from clients[0].create_blob(BLOB, BLOB_SIZE, chunk_size=CHUNK)
        processes = [cluster.sim.process(writer(rank))
                     for rank in range(writer_count)]
        yield cluster.sim.all_of(processes)
        latest = deployment.version_manager.manager.latest_published(BLOB)
        snapshots = {}
        for version in range(1, latest + 1):
            piece = yield from clients[0].vread(BLOB, [(0, BLOB_SIZE)], version)
            snapshots[version] = piece[0]
        return latest, snapshots

    process = cluster.sim.process(scenario())
    latest, snapshots = cluster.sim.run(stop_event=process)

    # every ticket that was handed out got published, in order, and each
    # snapshot equals the serial application of batches in ticket order
    assert sorted(batch_contents) == list(range(1, latest + 1))
    content = b"\x00" * BLOB_SIZE
    for version in range(1, latest + 1):
        content = apply_serially(content, batch_contents[version])
        assert snapshots[version] == content, (
            f"version {version} diverges from ticket-order application")
