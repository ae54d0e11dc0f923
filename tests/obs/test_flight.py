"""Flight recorder: ring semantics and behaviour-neutrality.

The recorder defaults ON, so the critical property is that it cannot
perturb the simulation: the identical workload run with the recorder on
and off must produce bit-identical outcomes (digest, sim clock, event
count, metrics snapshot).
"""

import json

import pytest

from repro.cluster.config import ClusterConfig
from repro.obs.flight import DEFAULT_FLIGHT_CAPACITY, FlightRecorder


def test_ring_bounds_entries_and_counts_drops():
    recorder = FlightRecorder(capacity=4)
    for index in range(7):
        recorder.record(float(index), float(index) + 0.5, "op",
                        f"rank{index}", "file.write_at")
    assert len(recorder) == 4
    assert recorder.recorded == 7
    assert recorder.dropped == 3
    # oldest first, oldest three evicted
    assert [entry[0] for entry in recorder.entries()] == [3.0, 4.0, 5.0, 6.0]


def test_default_capacity_and_empty_state():
    recorder = FlightRecorder()
    assert recorder.capacity == DEFAULT_FLIGHT_CAPACITY
    assert len(recorder) == 0
    assert recorder.dropped == 0
    assert recorder.entries() == []


def test_as_dict_dump_and_digest_are_deterministic(tmp_path):
    def build():
        recorder = FlightRecorder(capacity=8)
        recorder.record(0.1, 0.2, "rpc", "data0", "put_chunks")
        recorder.record(0.2, 0.4, "op", "rank3", "file.read_at_all")
        return recorder

    first, second = build(), build()
    assert first.as_dict() == second.as_dict()
    assert first.timeline_digest() == second.timeline_digest()
    third = FlightRecorder(capacity=8)
    third.record(0.1, 0.3, "rpc", "data0", "put_chunks")
    assert third.timeline_digest() != first.timeline_digest()

    out = tmp_path / "flight.json"
    dumped = first.dump(str(out))
    assert json.loads(out.read_text()) == dumped
    assert dumped["entries"][0] == {"start": 0.1, "end": 0.2, "kind": "rpc",
                                    "who": "data0", "what": "put_chunks"}


def run_point(flight_recorder: bool):
    from repro.bench.simcore import run_collective_io_point
    return run_collective_io_point(
        num_ranks=8, blocks_per_rank=2, block_size=2048, read_rounds=1,
        num_aggregators=2, seed=11,
        config=ClusterConfig(network_model="queued",
                             flight_recorder=flight_recorder))


def test_recorder_on_by_default_and_bit_identical_to_off():
    on = run_point(flight_recorder=True)
    off = run_point(flight_recorder=False)
    for key in ("read_digest", "sim_elapsed_s", "processed_events",
                "metrics"):
        assert on[key] == off[key], key
    # the full rows are identical except wall-clock noise
    on_stable = {k: v for k, v in on.items()
                 if "wall" not in k and "events_per_sec" not in k}
    off_stable = {k: v for k, v in off.items()
                  if "wall" not in k and "events_per_sec" not in k}
    assert on_stable == off_stable


def test_cluster_wires_recorder_by_default_and_config_disables_it():
    from repro.cluster.cluster import Cluster
    default = Cluster(config=ClusterConfig(), seed=0)
    assert default.obs.flight is not None
    assert default.obs.flight.capacity == 4096
    disabled = Cluster(config=ClusterConfig(flight_recorder=False), seed=0)
    assert disabled.obs.flight is None
    sized = Cluster(config=ClusterConfig(flight_capacity=16), seed=0)
    assert sized.obs.flight.capacity == 16


def test_cli_dumps_under_either_network_model_and_no_other(tmp_path, capsys):
    from repro.obs.cli import main
    out = tmp_path / "flight.json"
    assert main(["flight", "--ranks", "4", "--network", "bottleneck",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["entries"]
    assert '"network": "bottleneck"' in capsys.readouterr().out
    # "simple" was never a ClusterConfig.network_model: argparse rejects it
    with pytest.raises(SystemExit):
        main(["flight", "--ranks", "4", "--network", "simple",
              "--out", str(out)])
    assert "invalid choice: 'simple'" in capsys.readouterr().err
