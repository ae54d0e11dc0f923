"""Acceptance tests: end-to-end tracing of a collective I/O job.

A 64-rank ``write_at_all`` + ``read_at_all`` under the queued network
model must export a schema-valid Chrome trace whose causal chains span at
least five layers (File op → collective phase → commit → commit stage →
per-shard RPC → network link), with every span attributed to the
rank/node/shard/link it executed on — and running the identical workload
with tracing disabled must change nothing observable.
"""

import hashlib
import json
import math

from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.mpi.datatypes import BYTE, Indexed
from repro.mpi.launcher import run_mpi_job
from repro.mpiio.adio.versioning import VersioningDriver
from repro.mpiio.file import File
from repro.obs.critpath import LAYERS, operation_report
from repro.obs.export import (
    span_chains,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.views import collect_all
from repro.vstore.client import VectoredClient

NUM_RANKS = 64
BLOCKS = 4
BLOCK_SIZE = 1024
AGGREGATORS = 16
PATH = "/traced"


def run_collective_job(tracing: bool):
    """One interleaved collective write + read job; returns the evidence
    every assertion draws on."""
    stride = NUM_RANKS * BLOCK_SIZE
    file_size = BLOCKS * stride
    cluster = Cluster(config=ClusterConfig(network_model="queued",
                                           tracing=tracing), seed=7)
    deployment = BlobSeerDeployment(cluster, num_providers=8,
                                    num_metadata_providers=2,
                                    chunk_size=16 * 1024, node_prefix="tr")
    drivers = []
    comms = []

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node,
                                  rank_name=f"tr{ctx.rank}",
                                  write_coalescing=True,
                                  collective_buffering=True,
                                  collective_aggregators=AGGREGATORS)
        drivers.append(driver)
        if ctx.rank == 0:
            comms.append(ctx.comm)
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=file_size)
        displacements = [index * stride + ctx.rank * BLOCK_SIZE
                         for index in range(BLOCKS)]
        handle.set_view(0, BYTE, Indexed([BLOCK_SIZE] * BLOCKS,
                                         displacements, base=BYTE))
        payload = bytes([(ctx.rank + 1) % 251]) * (BLOCKS * BLOCK_SIZE)
        yield from handle.write_at_all(0, payload)
        yield from handle.sync()
        data = yield from handle.read_at_all(0, BLOCKS * BLOCK_SIZE)
        assert data == payload
        yield from handle.close()

    run_mpi_job(cluster, NUM_RANKS, rank_main, node_prefix="tr-rank")

    verifier = VectoredClient(deployment, cluster.add_node("tr-verify"),
                              name="tr-verify")

    def read_back():
        pieces = yield from verifier.vread(PATH, [(0, file_size)])
        return pieces[0]

    process = cluster.sim.process(read_back())
    content = cluster.sim.run(stop_event=process)
    registry = collect_all(
        cluster.obs.registry, cluster=cluster, deployment=deployment,
        clients=[driver.client for driver in drivers] + [verifier],
        drivers=drivers, comms=comms, complete_clients=True)
    registry.assert_identities()
    return {
        "cluster": cluster,
        "drivers": drivers,
        "digest": hashlib.sha256(content).hexdigest(),
        "sim_elapsed": cluster.sim.now,
        "events": cluster.sim.processed_events,
        "metrics": registry.snapshot(),
    }


def test_traced_collective_exports_valid_deep_trace(tmp_path):
    run = run_collective_job(tracing=True)
    tracer = run["cluster"].obs.tracer
    assert tracer.enabled
    assert tracer.spans, "tracing on but no spans recorded"
    open_spans = [span for span in tracer.spans if span.end is None]
    assert open_spans == []

    # schema: loadable by chrome://tracing / Perfetto
    trace = to_chrome_trace(tracer, run["cluster"].obs.link_telemetry)
    assert validate_chrome_trace(trace) == []

    # causal depth: at least 5 layers file -> ... -> link
    chains = span_chains(tracer)
    deepest = max(chains.values(), key=len)
    assert len(deepest) >= 5, [span.name for span in deepest]
    assert deepest[0].name.startswith("file.")
    names = {span.name for span in tracer.spans}
    for expected in ("file.write_at_all", "file.read_at_all",
                     "collective.write.exchange_data",
                     "collective.read.resolve", "commit", "commit.upload",
                     "net.link"):
        assert expected in names, f"missing layer span {expected}"
    # a stripe goes straight to the commit engine, never through the queue
    by_id = {span.span_id: span for span in tracer.spans}
    commits = [span for span in tracer.spans if span.name == "commit"]
    assert len(commits) == AGGREGATORS
    assert {by_id[span.parent_id].name for span in commits} \
        == {"collective.write.commit_stripe"}
    assert "coalescer.batch" not in names
    # every lane group the instrumentation emits is present
    assert {span.lane[0] for span in tracer.spans} == \
        {"rank", "shard", "link"}

    # interval nesting: every finished non-flow child inside its parent
    for span in tracer.spans:
        if not span.parent_id or span.flow or span.end is None:
            continue
        parent = by_id[span.parent_id]
        if parent.end is None:
            continue
        assert span.start >= parent.start - 1e-9, (span.name, parent.name)
        assert span.end <= parent.end + 1e-9, (span.name, parent.name)

    # the dump is valid JSON on disk and round-trips
    out = tmp_path / "trace.json"
    out.write_text(json.dumps(trace))
    assert validate_chrome_trace(out.read_text()) == []


def test_rank_and_node_attribution_matches_placement():
    run = run_collective_job(tracing=True)
    tracer = run["cluster"].obs.tracer
    placement = {driver.client.name: driver.client.node.name
                 for driver in run["drivers"]}
    shard_nodes = {node_name for node_name in run["cluster"].nodes}
    rank_spans = [span for span in tracer.spans if span.lane[0] == "rank"]
    assert rank_spans
    for span in rank_spans:
        assert span.lane[1] in placement
        assert span.args["node"] == placement[span.lane[1]]
    for span in tracer.spans:
        if span.lane[0] == "shard":
            assert span.lane[1] in shard_nodes
            assert span.name.startswith("rpc.")


def test_critpath_layers_tile_end_to_end_and_are_byte_stable():
    """Acceptance: on the 64-rank queued collective, the six layers sum
    *exactly* to each operation's end-to-end window, and the report is
    byte-stable across reruns of the same seed."""
    first = run_collective_job(tracing=True)
    report = operation_report(first["cluster"].obs.tracer)
    assert report["layers"] == list(LAYERS)
    ops = report["operations"]
    assert ops["file.write_at_all"]["count"] == NUM_RANKS
    assert ops["file.read_at_all"]["count"] == NUM_RANKS
    for name, entry in ops.items():
        assert math.isclose(entry["attributed_s"], entry["end_to_end_s"],
                            rel_tol=1e-9, abs_tol=1e-12), name
        assert math.isclose(sum(entry["layers"].values()),
                            entry["attributed_s"],
                            rel_tol=1e-9, abs_tol=1e-12), name
    # the headline op's path reaches the deeper tiers
    write_layers = ops["file.write_at_all"]["layers"]
    assert write_layers["link_transfer"] > 0.0
    assert write_layers["shard_service"] > 0.0
    assert write_layers["rpc_queueing"] > 0.0

    second = run_collective_job(tracing=True)
    rerun = operation_report(second["cluster"].obs.tracer)
    assert json.dumps(report, sort_keys=True) == \
        json.dumps(rerun, sort_keys=True)


def test_disabled_tracing_is_invisible_and_identical():
    traced = run_collective_job(tracing=True)
    untraced = run_collective_job(tracing=False)
    # zero-cost path: no tracer contexts, no spans
    assert not untraced["cluster"].obs.tracing
    assert untraced["cluster"].obs.tracer.finished_spans() == []
    assert all(driver.client.trace_ctx is None
               for driver in untraced["drivers"])
    # ...and no digest taps anywhere on the hot paths (digests are an
    # independent knob, off by default)
    cluster = untraced["cluster"]
    assert cluster.obs.digests is None
    assert cluster.rpc._digests is None
    assert cluster.network.digests is None
    assert cluster.rpc._tracer is None
    # identical simulation outcome, byte for byte
    assert untraced["digest"] == traced["digest"]
    assert untraced["sim_elapsed"] == traced["sim_elapsed"]
    assert untraced["events"] == traced["events"]
    # identical artifact payload (modulo the queued-model link telemetry,
    # which only samples under tracing)
    traced_metrics = {key: value for key, value in traced["metrics"].items()
                      if not key.startswith("net.link.")}
    untraced_metrics = {key: value
                        for key, value in untraced["metrics"].items()
                        if not key.startswith("net.link.")}
    assert untraced_metrics == traced_metrics


def test_default_cluster_file_ops_take_the_untapped_path():
    """With tracing and digests off — the default config — a file
    operation opens no observation bracket at all."""
    cluster = Cluster(seed=0)
    deployment = BlobSeerDeployment(cluster, num_providers=2,
                                    num_metadata_providers=1,
                                    chunk_size=1024, node_prefix="df")
    tokens = []

    def rank_main(ctx):
        driver = VersioningDriver(deployment, ctx.node, rank_name="df0")
        handle = yield from File.open(driver, PATH, rank=ctx.rank,
                                      comm=ctx.comm, size_hint=1024)
        tokens.append(handle._begin_op("file.write_at", 0, 8))
        yield from handle.write_at(0, b"untapped")
        yield from handle.close()

    run_mpi_job(cluster, 1, rank_main, node_prefix="df-rank")
    assert tokens == [None]
