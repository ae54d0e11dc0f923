"""Unit and property tests of the fixed-log-bucket latency digests."""

import random

from repro.obs.digest import (
    SUB_BITS,
    DigestTaps,
    LatencyDigest,
    bucket_bound,
    bucket_index,
    digest_columns,
)
from repro.obs.registry import MetricsRegistry

NS = 1_000_000_000


def test_bucket_index_is_monotone_and_bound_is_inclusive():
    previous = -1
    for ns in list(range(0, 4096)) + [10 ** k for k in range(4, 13)]:
        index = bucket_index(ns)
        assert index >= previous, ns
        previous = max(previous, index)
        lower_ok = bucket_bound(index) >= ns
        assert lower_ok, (ns, index, bucket_bound(index))
        if index > 0:
            assert bucket_bound(index - 1) < ns, (ns, index)


def test_quantization_error_bounded_by_sub_bucket_width():
    # upper bucket bound over-estimates by at most 1/2^SUB_BITS of the value
    bound_factor = 1.0 + 1.0 / (1 << SUB_BITS)
    for ns in [9, 100, 12345, 10 ** 6 + 7, 10 ** 9 + 123456]:
        bound = bucket_bound(bucket_index(ns))
        assert ns <= bound <= ns * bound_factor, (ns, bound)


def test_insertion_order_never_changes_buckets_or_quantiles():
    values = ([0.0, 1e-9, 5e-9, 3.2e-6, 3.2e-6, 4.7e-4, 1.1e-2]
              * 3 + [2.5e-1, 7.0])
    rng = random.Random(42)
    reference = None
    for _trial in range(5):
        shuffled = list(values)
        rng.shuffle(shuffled)
        digest = LatencyDigest("d")
        for value in shuffled:
            digest.record(value)
        snapshot = (digest.buckets(), digest.quantiles(), digest.sum_ns)
        if reference is None:
            reference = snapshot
        assert snapshot == reference


def test_max_is_exact_and_percentiles_are_upper_bounds():
    digest = LatencyDigest("d")
    samples = [1e-6 * k for k in range(1, 101)]
    for value in samples:
        digest.record(value)
    quantiles = digest.quantiles()
    assert quantiles["count"] == 100
    assert quantiles["max"] == round(round(100e-6 * NS) / NS, 9)
    # bucketed percentiles never under-report the true rank value
    assert quantiles["p50"] >= 50e-6 * 0.999
    assert quantiles["p95"] >= 95e-6 * 0.999
    assert quantiles["p99"] >= 99e-6 * 0.999
    assert quantiles["p99"] <= quantiles["max"] * (1 + 1 / (1 << SUB_BITS))


def test_percentiles_never_exceed_the_exact_max():
    """The top bucket's upper edge lies above the largest sample; a
    percentile that lands there reports the exact maximum instead (the
    artifacts used to show p95 6.29 ms beside max 5.78 ms)."""
    digest = LatencyDigest("d")
    for value in (1e-3, 2e-3, 5.78e-3):
        digest.record(value)
    quantiles = digest.quantiles()
    assert quantiles["p95"] == quantiles["p99"] == quantiles["max"] == 5.78e-3
    # lower buckets still report their own upper edge
    assert 2e-3 <= quantiles["p50"] < quantiles["max"]
    single = LatencyDigest("one")
    single.record(5.78e-3)
    assert single.percentile(0.5) == single.percentile(1.0) == 5.78e-3


def test_empty_digest_reports_zeros():
    digest = LatencyDigest("d")
    assert digest.quantiles() == {"count": 0, "p50": 0.0, "p95": 0.0,
                                  "p99": 0.0, "max": 0.0}
    assert digest.mean() == 0.0
    assert digest.buckets() == {}


def test_negative_inputs_clamp_to_zero():
    digest = LatencyDigest("d")
    digest.record(-1e-3)
    assert digest.max_ns == 0
    assert digest.buckets() == {0: 1}


def test_taps_fan_out_rpc_and_link_and_op_names():
    registry = MetricsRegistry()
    taps = DigestTaps(registry)
    taps.rpc("put_chunks", 1e-3)
    taps.rpc("put_chunks", 2e-3)
    taps.rpc("latest", 5e-4)
    taps.link("egress:n0", 1e-5)
    taps.link("egress:n1", 2e-5)
    taps.link("uplink:sw0", 3e-5)
    taps.op("file.write_at_all", 4e-3)

    assert registry.digest("rpc.latency.all").count == 3
    assert registry.digest("rpc.latency.put_chunks").count == 2
    assert registry.digest("rpc.latency.latest").count == 1
    # link samples aggregate per link *class*, not per concrete link
    assert registry.digest("net.queue_delay.all").count == 3
    assert registry.digest("net.queue_delay.egress").count == 2
    assert registry.digest("net.queue_delay.uplink").count == 1
    assert registry.digest("op.latency.file.write_at_all").count == 1

    snapshot = registry.snapshot()
    assert snapshot["rpc.latency.all.count"] == 3
    assert snapshot["rpc.latency.all.max"] == round(2e-3, 9)
    assert "net.queue_delay.egress.p95" in snapshot


def test_digest_columns_zero_filled_when_absent():
    registry = MetricsRegistry()
    columns = digest_columns(registry)
    assert columns == {"rpc_latency_count": 0, "rpc_latency_p50": 0.0,
                       "rpc_latency_p95": 0.0, "rpc_latency_p99": 0.0,
                       "rpc_latency_max": 0.0}
    DigestTaps(registry).rpc("latest", 1e-3)
    columns = digest_columns(registry)
    assert columns["rpc_latency_count"] == 1
    assert columns["rpc_latency_max"] == round(1e-3, 9)
