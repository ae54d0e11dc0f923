"""Options that only ever ran at one value are gone, not ignored.

Each of these keywords once selected a second behaviour that no run used;
the code now has the one value built in.  Passing one must fail loudly
with a ``TypeError`` rather than be accepted and silently dropped.
"""

import pytest

from repro.bench.environment import build_environment
from repro.bench.harness import run_atomic_write_job
from repro.blobseer.deployment import BlobSeerDeployment
from repro.blobseer.provider import SimDataProvider
from repro.blobseer.provider_manager import ProviderManager
from repro.cluster import Cluster, ClusterConfig
from repro.core.atomicity import find_serialization
from repro.mpiio.adio.versioning import VersioningDriver
from repro.vstore.backend import VersioningBackend


def versioning_driver(**options):
    cluster = Cluster()
    deployment = BlobSeerDeployment(cluster, num_providers=1)
    return VersioningDriver(deployment, cluster.add_node("rank0"), **options)


def data_provider(**options):
    cluster = Cluster()
    return SimDataProvider(cluster.add_node("data0", with_disk=True),
                           **options)


CALLS = {
    "ClusterConfig(codel_target=)": lambda: ClusterConfig(codel_target=1e-3),
    "ClusterConfig(codel_interval=)":
        lambda: ClusterConfig(codel_interval=20e-3),
    "ClusterConfig(cross_switch_latency=)":
        lambda: ClusterConfig(cross_switch_latency=None),
    "ClusterConfig(switch_bandwidth=)":
        lambda: ClusterConfig(switch_bandwidth=None),
    "ClusterConfig(persist_to_disk=)":
        lambda: ClusterConfig(persist_to_disk=True),
    "ClusterConfig(collective_aggregators=)":
        lambda: ClusterConfig(collective_aggregators=2),
    "ClusterConfig.copy(persist_to_disk=)":
        lambda: ClusterConfig().copy(persist_to_disk=False),
    "BlobSeerDeployment(allocation=)":
        lambda: BlobSeerDeployment(Cluster(), allocation="round_robin"),
    "BlobSeerDeployment(persist_to_disk=)":
        lambda: BlobSeerDeployment(Cluster(), persist_to_disk=True),
    "SimDataProvider(persist_to_disk=)":
        lambda: data_provider(persist_to_disk=True),
    "ProviderManager(strategy=)": lambda: ProviderManager(strategy=None),
    "VersioningBackend(allocation=)":
        lambda: VersioningBackend(allocation="round_robin"),
    "build_environment(allocation=)":
        lambda: build_environment("versioning", allocation="round_robin"),
    "VersioningDriver(collective_reads=)":
        lambda: versioning_driver(collective_reads=True),
    "run_atomic_write_job(atomic=)":
        lambda: run_atomic_write_job(None, 1, lambda rank: [], 1,
                                     atomic=True),
    "run_atomic_write_job(collective=)":
        lambda: run_atomic_write_job(None, 1, lambda rank: [], 1,
                                     collective=True),
    "find_serialization(max_group_permutations=)":
        lambda: find_serialization(b"", [], b"",
                                   max_group_permutations=40_000_000),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_deleted_option_is_a_type_error(name):
    with pytest.raises(TypeError):
        CALLS[name]()
