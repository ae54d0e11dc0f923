"""Tests for the rank->node placement layer.

The property at the bottom is the placement layer's contract: *any*
rank->node map — however many clients share a node, whatever the shared
tier caches or evicts — yields byte-identical reads to the private-cache
one-client-per-node baseline, and the cache-tier statistics partition every
lookup exactly (``private hits + shared hits + fetches == lookups``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer.deployment import BlobSeerDeployment
from repro.blobseer.metadata.tiers import partition_problems, wire_problems
from repro.cluster import Cluster, ClusterConfig, placement_map
from repro.errors import MPIError, SimulationError
from repro.mpi.launcher import run_mpi_job
from repro.vstore.client import VectoredClient

BLOB = "placed"
CHUNK = 2048
FILE_SIZE = 64 * CHUNK


class TestPlacementMap:
    def test_default_is_one_rank_per_node(self):
        assert placement_map(4) == [0, 1, 2, 3]

    def test_ranks_per_node_packs_consecutive_ranks(self):
        assert placement_map(6, ranks_per_node=2) == [0, 0, 1, 1, 2, 2]
        assert placement_map(5, ranks_per_node=4) == [0, 0, 0, 0, 1]

    def test_explicit_placement_wins_and_is_compacted(self):
        assert placement_map(4, placement=[7, 2, 7, 9]) == [0, 1, 0, 2]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SimulationError):
            placement_map(0)
        with pytest.raises(SimulationError):
            placement_map(2, ranks_per_node=0)
        with pytest.raises(SimulationError):
            placement_map(3, placement=[0, 1])
        with pytest.raises(SimulationError):
            placement_map(2, placement=[0, -1])


class TestClusterPlaceRanks:
    def test_nodes_are_shared_per_the_map(self):
        cluster = Cluster()
        nodes = cluster.place_ranks("r", 4, ranks_per_node=2)
        assert [node.name for node in nodes] == ["r0", "r0", "r1", "r1"]
        assert nodes[0] is nodes[1]

    def test_config_density_is_the_default(self):
        cluster = Cluster(config=ClusterConfig(ranks_per_node=3))
        nodes = cluster.place_ranks("r", 6)
        assert len({node.name for node in nodes}) == 2

    def test_explicit_placement(self):
        cluster = Cluster()
        nodes = cluster.place_ranks("r", 3, placement=[1, 0, 1])
        assert nodes[0] is nodes[2]
        assert nodes[0] is not nodes[1]


class TestLauncherPlacement:
    def test_mpi_job_ranks_share_nodes(self):
        cluster = Cluster()
        seen = {}

        def rank_main(ctx):
            seen[ctx.rank] = ctx.node.name
            yield from ctx.comm.barrier(ctx.rank)
            return ctx.rank

        result = run_mpi_job(cluster, 4, rank_main, ranks_per_node=2)
        assert result.results == [0, 1, 2, 3]
        assert seen[0] == seen[1]
        assert seen[2] == seen[3]
        assert seen[0] != seen[2]

    def test_launcher_rejects_short_node_lists(self):
        cluster = Cluster()
        nodes = cluster.place_ranks("r", 1)

        def rank_main(ctx):
            yield from ctx.comm.barrier(ctx.rank)

        with pytest.raises(MPIError):
            run_mpi_job(cluster, 2, rank_main, nodes=nodes)


# ----------------------------------------------------------------------
# the placement property
# ----------------------------------------------------------------------
NUM_CLIENTS = 4


@st.composite
def scenarios(draw):
    placement = [draw(st.integers(0, NUM_CLIENTS - 1))
                 for _ in range(NUM_CLIENTS)]
    num_writes = draw(st.integers(1, 3))
    writes = []
    for _ in range(num_writes):
        offset = draw(st.integers(0, FILE_SIZE - 1))
        size = draw(st.integers(1, min(4 * CHUNK, FILE_SIZE - offset)))
        fill = draw(st.integers(1, 255))
        writes.append((offset, bytes([fill]) * size))
    reads = []
    for _ in range(NUM_CLIENTS):
        offset = draw(st.integers(0, FILE_SIZE - 1))
        size = draw(st.integers(1, min(6 * CHUNK, FILE_SIZE - offset)))
        reads.append((offset, size))
    capacity = draw(st.sampled_from([None, 4, 8, 32]))
    return placement, writes, reads, capacity


def run_reads(placement, writes, reads, shared, capacity):
    """Seed the BLOB, then run one read per client under a placement."""
    config = ClusterConfig(shared_metadata_cache=shared,
                           shared_cache_capacity=capacity)
    cluster = Cluster(config=config)
    deployment = BlobSeerDeployment(cluster, num_providers=2,
                                    num_metadata_providers=2,
                                    chunk_size=CHUNK)
    seeder = VectoredClient(deployment, cluster.add_node("seed"),
                            name="seed", shared_metadata_cache=False)

    def seed():
        yield from seeder.create_blob(BLOB, FILE_SIZE)
        version = 0
        for pair in writes:
            receipt = yield from seeder.vwrite_and_wait(BLOB, [pair])
            version = receipt.version
        return version

    process = cluster.sim.process(seed())
    cluster.sim.run(stop_event=process)
    version = process.value

    nodes = cluster.place_ranks("cn", NUM_CLIENTS,
                                placement=placement if shared else None)
    clients = [VectoredClient(deployment, nodes[index], name=f"c{index}")
               for index in range(NUM_CLIENTS)]
    results = {}

    def read_client(index):
        pieces = yield from clients[index].vread(BLOB, [reads[index]],
                                                 version)
        results[index] = pieces

    processes = [cluster.sim.process(read_client(index))
                 for index in range(NUM_CLIENTS)]

    def driver():
        yield cluster.sim.all_of(processes)

    process = cluster.sim.process(driver())
    cluster.sim.run(stop_event=process)
    return results, clients


@settings(max_examples=15, deadline=None)
@given(scenarios())
def test_any_placement_reads_byte_identically_and_stats_partition(scenario):
    placement, writes, reads, capacity = scenario
    baseline, _ = run_reads(placement, writes, reads,
                            shared=False, capacity=None)
    placed, clients = run_reads(placement, writes, reads,
                                shared=True, capacity=capacity)
    assert placed == baseline

    # exact partition, per client: every deduplicated lookup was a private
    # hit, a shared hit, or a fetch — and, the seeder staying outside the
    # shared tier, the node pools counted exactly what these clients asked
    chains = [client.tiers for client in clients]
    assert partition_problems(chains) == []
    assert wire_problems(chains) == []
