"""Unit tests of the span tracer, context stack and Chrome export."""

import json
from types import SimpleNamespace

import pytest

from repro.blobseer.client import BlobClient
from repro.blobseer.deployment import BlobSeerDeployment
from repro.cluster import Cluster, ClusterConfig
from repro.obs.export import (
    span_chains,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.linktel import LinkTelemetry
from repro.obs.trace import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_tracer():
    clock = FakeClock()
    return Tracer(clock=clock), clock


def test_span_ids_sequential_and_clock_driven():
    tracer, clock = make_tracer()
    first = tracer.begin_span("a", "op", ("rank", "r0"))
    clock.now = 1.0
    second = tracer.begin_span("b", "op", ("rank", "r0"),
                               parent_id=first.span_id)
    clock.now = 2.0
    tracer.end_span(second)
    tracer.end_span(first)
    assert [span.span_id for span in tracer.spans] == [1, 2]
    assert second.parent_id == first.span_id
    assert (first.start, first.end) == (0.0, 2.0)
    assert (second.start, second.end) == (1.0, 2.0)
    assert second.duration == 1.0


def test_complete_span_records_precomputed_interval():
    tracer, clock = make_tracer()
    clock.now = 5.0
    span = tracer.complete_span("net.link", "net", ("link", "l0"),
                                start=1.5, end=2.5)
    assert (span.start, span.end) == (1.5, 2.5)
    assert span in tracer.finished_spans()


def test_context_stack_parents_mainline_spans():
    tracer, _clock = make_tracer()
    ctx = tracer.context(("rank", "r3"), node="node3")
    outer = ctx.begin("file.write_at_all", cat="mpiio", rank=3)
    inner = ctx.begin("collective.write.describe", cat="collective")
    assert inner.parent_id == outer.span_id
    assert ctx.current is inner
    ctx.finish(inner)
    assert ctx.current is outer
    ctx.finish(outer)
    assert ctx.current is None
    # context attrs merge into every span's args
    assert outer.args["node"] == "node3"
    assert outer.args["rank"] == 3


def test_finish_pops_spans_left_open_by_exception_paths():
    tracer, _clock = make_tracer()
    ctx = tracer.context(("rank", "r0"))
    outer = ctx.begin("outer")
    ctx.begin("leaked")
    ctx.finish(outer)
    assert ctx.current is None


def test_detached_spans_never_touch_the_stack():
    tracer, _clock = make_tracer()
    ctx = tracer.context(("rank", "r0"))
    mainline = ctx.begin("mainline")
    detached = ctx.begin_detached("commit", parent=mainline,
                                  lane=("rank", "r0"))
    flow = ctx.begin_detached("commit.complete", parent=detached, flow=True)
    assert ctx.current is mainline
    assert detached.parent_id == mainline.span_id
    assert flow.flow is True
    ctx.end(flow)
    ctx.end(detached)
    ctx.finish(mainline)


@pytest.mark.parametrize("network_model", ["bottleneck", "queued"])
def test_an_untraced_cluster_has_no_tracer_anywhere(network_model):
    cluster = Cluster(config=ClusterConfig(network_model=network_model))
    deployment = BlobSeerDeployment(cluster, num_providers=2)
    client = BlobClient(deployment, cluster.add_node("c0"))
    assert cluster.obs.tracer is None
    assert not cluster.obs.tracing
    assert client.trace_ctx is None
    assert cluster.rpc._tracer is None
    assert cluster.network.tracer is None


def test_chrome_export_schema_and_chains():
    tracer, clock = make_tracer()
    ctx = tracer.context(("rank", "r0"))
    root = ctx.begin("file.write_at_all", cat="mpiio")
    clock.now = 1e-3
    child = ctx.begin_detached("rpc.put_chunks", cat="rpc",
                               parent=root, lane=("shard", "data0"))
    clock.now = 2e-3
    ctx.end(child)
    ctx.finish(root)
    telemetry = LinkTelemetry(sim=None)
    telemetry.record(SimpleNamespace(name="l0", bytes_transferred=64,
                                     busy_time=1e-3), 1e-3, 0.0, 64)

    trace = to_chrome_trace(tracer, telemetry)
    assert validate_chrome_trace(trace) == []
    assert validate_chrome_trace(json.dumps(trace)) == []
    events = trace["traceEvents"]
    assert any(event["ph"] == "M" for event in events)
    assert any(event["ph"] == "C" for event in events)
    spans = [event for event in events if event["ph"] == "X"]
    assert len(spans) == 2
    # µs timestamps
    by_name = {event["name"]: event for event in spans}
    assert by_name["rpc.put_chunks"]["ts"] == 1000.0
    assert by_name["rpc.put_chunks"]["dur"] == 1000.0

    chains = span_chains(tracer)
    assert [span.name for span in chains[child.span_id]] == \
        ["file.write_at_all", "rpc.put_chunks"]


def test_span_chains_order_is_timestamp_major_span_id_tiebreak():
    # Spans recorded out of timestamp order (a late span first) plus two
    # spans sharing the exact same start: the chain listing must come back
    # sorted by (start, span_id), never by recording order.
    tracer, _clock = make_tracer()
    late = tracer.complete_span("late", "op", ("rank", "r1"),
                                start=5.0, end=6.0)
    tie_a = tracer.complete_span("tie_a", "op", ("rank", "r0"),
                                 start=2.0, end=3.0)
    tie_b = tracer.complete_span("tie_b", "op", ("rank", "r1"),
                                 start=2.0, end=4.0)
    early = tracer.complete_span("early", "op", ("rank", "r0"),
                                 start=0.0, end=1.0)
    chains = span_chains(tracer)
    assert list(chains) == [early.span_id, tie_a.span_id,
                            tie_b.span_id, late.span_id]
    # same-timestamp spans keep span-id order deterministically
    assert tie_a.span_id < tie_b.span_id


def test_validator_reports_problems():
    tracer, _clock = make_tracer()
    span = tracer.begin_span("open", "op", ("rank", "r0"))
    trace = to_chrome_trace(tracer)   # open span skipped
    assert validate_chrome_trace(trace) == []
    tracer.end_span(span)
    trace = to_chrome_trace(tracer)
    trace["traceEvents"].append({"ph": "X", "name": "bad"})
    assert validate_chrome_trace(trace) != []
