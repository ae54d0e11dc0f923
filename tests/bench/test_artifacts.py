"""The one artifact writer behind ``python -m repro.bench run`` and the
``benchmarks/test_perf_*.py`` suites: smoke output never lands on a
committed full-size ``BENCH_*.json``."""

import json

import pytest

from repro.bench.artifacts import artifact_target, write_artifact
from repro.bench.cli import main


def test_full_size_run_writes_the_named_path(tmp_path):
    path = tmp_path / "BENCH_x.json"
    written = write_artifact(path, {"suite": "x", "smoke": False, "rows": []})
    assert written == path == artifact_target(path, smoke=False)
    assert json.loads(path.read_text())["smoke"] is False
    assert path.read_text().endswith("}\n")


def test_smoke_run_leaves_the_full_size_artifact_alone(tmp_path):
    path = tmp_path / "BENCH_x.json"
    write_artifact(path, {"suite": "x", "smoke": False, "rows": [1]})
    committed = path.read_text()
    written = write_artifact(path, {"suite": "x", "smoke": True, "rows": []})
    assert written == tmp_path / "BENCH_x.smoke.json"
    assert written == artifact_target(path, smoke=True)
    assert json.loads(written.read_text())["smoke"] is True
    assert path.read_text() == committed
    # a second smoke run replaces the first
    write_artifact(path, {"suite": "x", "smoke": True, "rows": [2]})
    assert json.loads(written.read_text())["rows"] == [2]


def test_smoke_run_refuses_to_replace_a_full_size_file(tmp_path):
    path = tmp_path / "BENCH_x.json"
    misplaced = artifact_target(path, smoke=True)
    misplaced.write_text(json.dumps({"suite": "x", "smoke": False}))
    with pytest.raises(RuntimeError, match="full-size"):
        write_artifact(path, {"suite": "x", "smoke": True, "rows": []})
    assert json.loads(misplaced.read_text())["smoke"] is False


def test_run_creates_a_nested_out_directory_that_does_not_exist(tmp_path):
    """``run --out new/dir`` used to finish the first suite and then lose
    the measurement to a ``FileNotFoundError``."""
    out = tmp_path / "new_dir" / "nested"
    assert main(["run", "metadata", "--smoke", "--out", str(out)]) == 0
    written = out / "BENCH_metadata.smoke.json"
    assert json.loads(written.read_text())["smoke"] is True
