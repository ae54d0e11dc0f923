"""Regression: the network model shapes *time*, never *bytes*.

Switching ``network_model`` between ``"bottleneck"`` and ``"queued"`` — or
perturbing the queued model's propagation latency with ``network_jitter`` —
must leave every workload result byte-identical.  This pins the RNG scope
split: timing noise draws from the ``network`` scope, so workload-visible
streams (placement, data) are never advanced by it.

The perf suites publish their numbers under ``"bottleneck"`` only; the last
test here is why that loses nothing: for one smoke-sized point of every job
shape the suite table runs, the protocol-decided counter columns and the
read digest are equal under both models.
"""

from types import SimpleNamespace

import pytest

from repro.bench.simcore import run_collective_io_point
from repro.bench.suites import SUITES
from repro.cluster.config import ClusterConfig

#: small but contended shape: 16 ranks, interleaved blocks, 4 aggregators,
#: 4 nodes per switch so cross-switch links (the queued model's per-hop
#: machinery) actually carry traffic
SHAPE = dict(num_ranks=16, blocks_per_rank=8, block_size=2048, read_rounds=1,
             num_aggregators=4, num_providers=3, num_metadata_providers=2,
             chunk_size=1024)


def _point(**config_kwargs):
    config_kwargs.setdefault("nodes_per_switch", 4)
    return run_collective_io_point(config=ClusterConfig(**config_kwargs),
                                   **SHAPE)


def test_bottleneck_and_queued_move_identical_bytes():
    bottleneck = _point(network_model="bottleneck")
    queued = _point(network_model="queued")
    assert bottleneck["read_digest"] == queued["read_digest"]
    # ...while genuinely simulating different machinery (per-hop events)
    assert bottleneck["processed_events"] != queued["processed_events"]


def test_jitter_perturbs_timing_but_not_bytes():
    calm = _point(network_model="queued", network_jitter=0.0)
    noisy = _point(network_model="queued", network_jitter=0.3)
    assert calm["read_digest"] == noisy["read_digest"]
    assert calm["sim_elapsed_s"] != noisy["sim_elapsed_s"]


SCAN_COLUMNS = ("metadata_rpcs", "latest_rpcs", "private_hits", "shared_hits",
                "fetched_lookups", "shared_evictions", "shared_rejections",
                "server_read_rpcs")

#: (suite entry, plan label at smoke size, the columns the protocol — not
#: the cost model — decides); ``read_digest`` is compared on every point.
JOB_SHAPES = [
    ("metadata", "cached-batched",
     ("metadata_rpcs", "cache_hits", "cache_misses")),
    ("writepath", "pipelined-coalesced",
     ("logical_writes", "snapshots", "control_rpcs", "metadata_put_rpcs")),
    ("collective", "N4:collective-a2",
     ("logical_writes", "snapshots", "control_rpcs", "metadata_put_rpcs",
      "exchange_bytes")),
    ("collective_read", "N4:collective-r2",
     ("metadata_rpcs", "latest_rpcs", "exchange_bytes")),
    # the scan job twice: a sharing point and an evicting one
    ("sharedcache", "identical:shared", SCAN_COLUMNS),
    ("sharedcache", "streaming@16", SCAN_COLUMNS),
]


@pytest.mark.parametrize("name,label,columns", JOB_SHAPES,
                         ids=[f"{name}-{label}" for name, label, _ in JOB_SHAPES])
def test_counters_and_bytes_do_not_depend_on_the_network_model(name, label,
                                                               columns):
    suite = SUITES[name]
    settings = SimpleNamespace(**{**suite.settings, **suite.smoke})
    kwargs = dict(suite.plan(settings))[label]

    def point(model):
        row, extras = suite.point(
            settings, ClusterConfig(network_model=model), **kwargs)
        return {**row, **extras}

    bottleneck, queued = point("bottleneck"), point("queued")
    for column in columns + ("read_digest",):
        assert bottleneck[column] == queued[column], column
