"""The command line: the driver's contract, smoke hygiene, agree."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import REPO_ROOT
from perfbench.agree import BASELINE_PATH, verdict
from perfbench.metrics import END_TO_END, PER_LAYER, contract
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _perfbench(*args, cwd=REPO_ROOT):
    return subprocess.run([sys.executable, "-m", "perfbench", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_benchmark_json_is_the_declared_contract():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        on_disk = json.load(handle)
    assert on_disk == contract(WORKLOADS.values())
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in on_disk[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(entry["unit"])
               for key in ("end_to_end", "per_layer")
               for entry in on_disk[key])
    assert 2 <= len(on_disk["workloads"]) <= 8
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"]
               for entry in on_disk["workloads"])
    assert len(on_disk["end_to_end"]) <= 16 and len(on_disk["per_layer"]) <= 128
    assert all(0 < entry["bound"] <= 0.25 for entry in on_disk["end_to_end"])
    setup = [entry for entry in on_disk["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(entry["bound"]
                                   for entry in on_disk["end_to_end"])}]
    # the whole driver session must fit its cap with room to spare
    runs = 4 + 22 * len(on_disk["workloads"])
    assert runs * (on_disk["run_seconds"] + 9) < 3420


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_prints_the_drivers_json_line(tmp_path, trace):
    done = _perfbench("bench", "--workload", "tile_io", "--seed", "4",
                      "--seconds", "0.2", "--trace", trace, "--smoke",
                      "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = PER_LAYER if trace == "1" else END_TO_END
    assert set(result["metrics"]) == {metric.name for metric in declared}
    for metric in declared:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_smoke_output_is_stamped_kept_apart_and_never_recorded(tmp_path):
    done = _perfbench("run", "shared_scan", "--seed", "2", "--smoke",
                      "--seconds", "0.2", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for metric in END_TO_END:
        assert re.search(rf"^\s+{re.escape(metric.name)}\s+\S+ "
                         rf"{re.escape(metric.unit)}$", done.stdout, re.M)
    assert "failed_ops_share" in done.stdout and "SMOKE" in done.stdout
    files = sorted(os.listdir(tmp_path / "smoke"))
    assert os.listdir(tmp_path) == ["smoke"] and len(files) == 1
    with open(tmp_path / "smoke" / files[0]) as handle:
        record = json.load(handle)
    assert record["smoke"] is True
    for key in ("commit", "python", "nproc", "seed"):
        assert key in record
    assert record["detail"]["k"] >= 3

    before = open(BASELINE_PATH).read() if os.path.exists(BASELINE_PATH) \
        else None
    refused = _perfbench("record", str(tmp_path / "smoke"))
    assert refused.returncode == 2 and "smoke" in refused.stdout
    after = open(BASELINE_PATH).read() if os.path.exists(BASELINE_PATH) \
        else None
    assert before == after


def test_agree_reports_same_seed_sets_as_same(tmp_path):
    for side in ("a", "b"):
        done = _perfbench("run", "overlap_write", "--seed", "1", "--smoke",
                          "--seconds", "0.2", "--out", str(tmp_path / side))
        assert done.returncode == 0, done.stderr
    done = _perfbench("agree", str(tmp_path / "a" / "smoke"),
                      str(tmp_path / "b" / "smoke"))
    rows = {line.split()[1]: line.split()[-1]
            for line in done.stdout.splitlines()
            if line.startswith("overlap_write ")}
    assert set(rows) == {metric.name for metric in END_TO_END}
    for metric in END_TO_END:
        if metric.exact:
            assert rows[metric.name] == "same"
        assert rows[metric.name] in ("same", "worse", "unresolved")


def test_verdicts():
    assert verdict("sim_write_mib_s", [100.0] * 3, [100.0] * 3)[0] == "same"
    assert verdict("sim_write_mib_s", [100.0] * 3, [90.0] * 3)[0] == "worse"
    assert verdict("sim_write_mib_s", [100.0] * 3, [120.0] * 3)[0] == "same"
    assert verdict("host_s", [1.0] * 3, [1.5] * 3) == ("worse", 1.5)
    assert verdict("host_s", [1.0, 1.5, 2.0, 2.5], [1.0] * 4)[0] \
        == "unresolved"
    assert verdict("rpc.calls", [7], [7])[0] == "same"
    assert verdict("rpc.calls", [7], [8])[0] == "differs"
    assert verdict("host.simengine.self_s", [0.25], [0.5]) == ("info", 2.0)


def test_refuses_to_run_without_the_program(tmp_path):
    # the driver also runs the command where only the benchmark exists
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(REPO_ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _perfbench("bench", "--workload", "tile_io", "--seed", "0",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
