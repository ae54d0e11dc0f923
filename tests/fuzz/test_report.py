"""The triage bundle of a flagged run: what it holds, and what it no longer
does.

Triage replays the seed with tracing on; the Chrome trace and the
critical-path report of that replay are the bundle's whole record of the
run's timeline.
"""

import json

from repro.fuzz.report import dump_flagged
from repro.fuzz.runner import execute_scenario
from repro.obs.critpath import LAYERS
from repro.obs.export import validate_chrome_trace
from tests.fuzz._scenlib import checkpoint_phase, make_scenario


def flagged_result():
    scenario = make_scenario(seed=5, phases=[
        checkpoint_phase("collective_write"), checkpoint_phase()])
    result = execute_scenario(scenario)
    assert not result.flagged
    result.anomalies["byte_identity"].append("planted: phase 1 mismatch")
    assert result.flagged
    return result


def test_dump_flagged_writes_the_replayed_trace_and_critpath(tmp_path):
    run_dir = tmp_path / "flagged" / "seed_5"
    assert dump_flagged(flagged_result(), str(tmp_path)) == str(run_dir)
    assert sorted(path.name for path in run_dir.iterdir()) == [
        "anomalies.json", "config.json", "critpath.json", "scenario.json",
        "trace.json"]

    scenario = json.loads((run_dir / "scenario.json").read_text())
    assert scenario["seed"] == 5
    anomalies = json.loads((run_dir / "anomalies.json").read_text())
    assert anomalies["anomalies"]["byte_identity"] == [
        "planted: phase 1 mismatch"]
    config = json.loads((run_dir / "config.json").read_text())
    assert config["tracing"] is False      # the run as swept, untraced
    assert not any(key.startswith("flight") for key in config)

    assert validate_chrome_trace((run_dir / "trace.json").read_text()) == []
    report = json.loads((run_dir / "critpath.json").read_text())
    assert report["layers"] == list(LAYERS)
    assert report["operations"]["file.write_at_all"]["count"] == 4
