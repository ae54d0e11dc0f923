"""Every entry of ``repro.bench.suites.SUITES``, smoke-sized: the runner
emits the committed artifact's shape, deterministically, on the smoke path."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.suites import SUITES, run_suite

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Each suite's smoke run, made once for the whole module."""
    runs = {}

    def get(name):
        if name not in runs:
            runs[name] = run_suite(
                name, smoke=True, out_dir=tmp_path_factory.mktemp(name))
        return runs[name]
    return get


def row_shapes(artifact):
    """The distinct column sets among an artifact's rows (one per kind of
    row: simcore's traced/untraced rows, writepath's sweep rows)."""
    return {frozenset(row) for row in artifact["rows"]}


@pytest.mark.parametrize("name", SUITES)
def test_smoke_run_has_the_committed_artifacts_shape(name, smoke_runs):
    committed = json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())
    assert committed["smoke"] is False, "committed artifacts are full-size"
    artifact = json.loads(smoke_runs(name).path.read_text())
    assert artifact["smoke"] is True
    assert set(artifact) == set(committed)
    assert set(artifact["settings"]) == set(committed["settings"])
    assert row_shapes(artifact) == row_shapes(committed)


@pytest.mark.parametrize("name", SUITES)
def test_points_are_keyed_by_plan_label_alone(name, smoke_runs):
    """One cluster configuration per suite: no network-model level in
    ``points``, no model prefix on the headline entries."""
    suite, run = SUITES[name], smoke_runs(name)
    assert list(run.points) == [label for label, _ in suite.plan(run.settings)]
    assert "network_models" not in run.artifact
    if suite.reduction:
        key, column, _rule = suite.reduction
        assert run.artifact[key], "the headline names at least one point"
        for entry in run.artifact[key]:
            assert not entry.startswith(("bottleneck:", "queued:")), entry
        assert all(column in values for values in run.points.values())


@pytest.mark.parametrize("name", SUITES)
def test_two_smoke_runs_write_byte_identical_files(name, smoke_runs,
                                                   tmp_path):
    """Two smoke runs write byte-identical files: an artifact carries the
    simulated clock only, so CI can gate the committed ones with
    ``git diff``."""
    first = smoke_runs(name).path
    second = run_suite(name, smoke=True, out_dir=tmp_path).path
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("name", SUITES)
def test_smoke_run_lands_on_the_smoke_path_only(name, smoke_runs):
    run = smoke_runs(name)
    assert run.path.name == f"BENCH_{name}.smoke.json"
    assert not (run.path.parent / f"BENCH_{name}.json").exists()
    # ... and refuses to replace a full-size file sitting on that path
    run.path.write_text(json.dumps({"suite": name, "smoke": False}))
    with pytest.raises(RuntimeError, match="full-size"):
        run_suite(name, smoke=True, out_dir=run.path.parent)
    assert json.loads(run.path.read_text())["smoke"] is False


class _Sized(Exception):
    """Carries the settings of the first point a suite ran."""


def test_smoke_environment_variable_does_not_change_the_size(monkeypatch,
                                                             tmp_path):
    """``run_suite`` is full-size unless called with ``smoke=True``: no
    environment variable (``REPRO_BENCH_SMOKE`` included) scales it down."""
    def point(settings, config, **kwargs):
        raise _Sized(settings)

    monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
    monkeypatch.setitem(SUITES, "metadata",
                        replace(SUITES["metadata"], point=point))
    with pytest.raises(_Sized) as sized:
        run_suite("metadata", out_dir=tmp_path)
    settings = sized.value.args[0]
    assert vars(settings) == dict(SUITES["metadata"].settings)
    assert not list(tmp_path.iterdir())
