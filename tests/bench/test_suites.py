"""Every entry of ``repro.bench.suites.SUITES``, smoke-sized: the runner
emits the committed artifact's shape, deterministically, on the smoke path."""

import json
from fnmatch import fnmatch
from pathlib import Path

import pytest

from repro.bench.suites import SUITES, run_suite
from repro.obs.diff import DEFAULT_WALL_PATTERNS, flatten

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
    row: simcore's traced/untraced/churn rows, metadata's algebra row)."""
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


def simulated_values(artifact):
    """Every leaf value except the host-wall-clock family."""
    return {path: value for path, value in flatten(artifact).items()
            if not any(fnmatch(path, pattern)
                       for pattern in DEFAULT_WALL_PATTERNS)}


@pytest.mark.parametrize("name", SUITES)
def test_two_runs_agree_on_everything_but_wall_clock(name, smoke_runs,
                                                     tmp_path):
    first = smoke_runs(name).artifact
    second = run_suite(name, smoke=True, out_dir=tmp_path).artifact
    assert simulated_values(first) == simulated_values(second)
    assert len(simulated_values(first)) > len(first["rows"])


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
