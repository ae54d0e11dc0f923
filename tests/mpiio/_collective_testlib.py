"""Shared scaffolding of the collective-buffering test suites.

One copy of the deployment shape and the fresh-client latest-version
read-back every conformance/property/fault-injection assertion is built on
(underscore-prefixed so pytest does not collect it as a test module).
"""

from dataclasses import replace

from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.vstore.client import VectoredClient

#: fast network, and disks that position in a microsecond: a collective
#: write sizes its exchange rounds to be worth a disk's positioning time, so
#: here one stripe row of 1 KiB chunks already is and the suites' small files
#: run in several rounds (``test_collective_rounds`` pins the sizing itself)
QUICK = ClusterConfig(network_latency=1e-5, disk_overhead=1e-6)


def make_quick_deployment(seed=3, chunk_size=1024,
                          network_model="bottleneck"):
    """A small fast-network BlobSeer deployment on a fresh cluster."""
    cluster = Cluster(config=replace(QUICK, network_model=network_model),
                      seed=seed)
    deployment = BlobSeerDeployment(cluster, num_providers=3,
                                    num_metadata_providers=2,
                                    chunk_size=chunk_size)
    return cluster, deployment


def read_back_latest(cluster, deployment, path, size):
    """Whole-file contents at the latest published version, fresh client.

    A fresh client has no cache, no hints and no queue: what it reads is
    exactly what the backend published, the ground truth every write-mode
    comparison uses.
    """
    client = VectoredClient(deployment, cluster.add_node(
        f"verify{len(cluster.nodes)}"), name="verify")

    def scenario():
        pieces = yield from client.vread(path, [(0, size)])
        return pieces[0]

    process = cluster.sim.process(scenario())
    return cluster.sim.run(stop_event=process)
