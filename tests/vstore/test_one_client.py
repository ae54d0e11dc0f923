"""One client class: the vectored interface and the write queue are part of
every :class:`~repro.blobseer.client.BlobClient`, and the queue takes no
options (it flushes at MPI's flush points only)."""

import pytest

from repro.blobseer import BlobSeerDeployment
from repro.blobseer.client import BlobClient
from repro.blobseer.writepath import WriteCoalescer
from repro.cluster import Cluster, ClusterConfig
from repro.mpiio.adio.versioning import VersioningDriver
from repro.vstore.client import VectoredClient

BLOB = "one-client"


def make_deployment():
    cluster = Cluster(config=ClusterConfig(), seed=3)
    deployment = BlobSeerDeployment(cluster, num_providers=2,
                                    num_metadata_providers=1, chunk_size=256)
    return cluster, deployment


def run(cluster, generator):
    return cluster.sim.run(stop_event=cluster.sim.process(generator))


def test_vectored_client_is_the_blob_client():
    assert VectoredClient is BlobClient


@pytest.mark.parametrize("option", ["coalesce_max_writes",
                                    "coalesce_max_bytes",
                                    "coalesce_max_delay"])
def test_removed_coalescer_options_are_rejected(option):
    cluster, deployment = make_deployment()
    with pytest.raises(TypeError, match=option):
        BlobClient(deployment, cluster.add_node("client"), **{option: 1})
    with pytest.raises(TypeError, match=option):
        VersioningDriver(deployment, cluster.add_node("rank"),
                         write_coalescing=True, **{option: 1})


def test_deployment_client_queues_and_answers_the_vectored_calls():
    cluster, deployment = make_deployment()
    client = BlobClient(deployment, cluster.add_node("compute"))
    assert isinstance(client.coalescer, WriteCoalescer)

    def scenario():
        yield from client.create_blob(BLOB, 1024)
        yield from client.vwrite(BLOB, [(0, b"abcd"), (512, b"wxyz")])
        yield from client.vwrite_queued(BLOB, [(2, b"QQ")])
        queued = client.coalescer.pending_writes(BLOB)
        receipts = yield from client.vbarrier(BLOB)
        pieces = yield from client.vread(BLOB, [(0, 4), (512, 4)])
        return queued, receipts, pieces

    queued, receipts, pieces = run(cluster, scenario())
    assert queued == 1
    assert [receipt.version for receipt in receipts] == [2]
    assert pieces == [b"abQQ", b"wxyz"]
    assert client.coalescer.pending_writes() == 0
