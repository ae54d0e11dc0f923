"""Artifact diff: one exact rule, rows keyed by label, and CLI exit codes."""

import json

import pytest

from repro.obs.cli import main
from repro.obs.diff import compare, compare_files, flatten


def artifact():
    """A miniature BENCH_simcore-shaped artifact."""
    return {
        "rows": [
            {"label": "headline", "sim_elapsed_s": 0.125,
             "processed_events": 5000, "read_digest": "abc"},
            {"label": "headline-queued", "sim_elapsed_s": 0.25,
             "processed_events": 7000, "read_digest": "abc"},
        ],
        "tracing_invariant": True,
    }


def test_flatten_keys_rows_by_label():
    flat = flatten(artifact())
    assert flat["rows[headline].sim_elapsed_s"] == 0.125
    assert flat["rows[headline-queued].processed_events"] == 7000
    # unlabelled lists fall back to indices
    assert flatten({"xs": [1, 2]}) == {"xs[0]": 1, "xs[1]": 2}
    # duplicate labels also fall back to indices
    dup = flatten({"rows": [{"label": "a", "v": 1}, {"label": "a", "v": 2}]})
    assert "rows[0].v" in dup and "rows[1].v" in dup


def test_identical_artifacts_are_clean():
    report = compare(artifact(), artifact())
    assert report["status"] == "ok"
    assert report["regressions"] == []
    assert report["compared"] == len(flatten(artifact()))


def test_sim_time_change_is_an_exact_regression():
    current = artifact()
    current["rows"][0]["sim_elapsed_s"] = 0.126
    report = compare(artifact(), current)
    assert report["status"] == "regression"
    assert any("rows[headline].sim_elapsed_s" in line
               for line in report["regressions"])


def test_type_change_flags_even_when_equal():
    baseline = {"processed_events": 5000}
    current = {"processed_events": 5000.0}
    report = compare(baseline, current)
    assert report["status"] == "regression"


def test_host_clock_named_key_is_a_plain_regression():
    """No key is banded or ignored by its name: a ``wall_clock_s`` that
    moves is a regression like any other value."""
    baseline = artifact()
    baseline["rows"][0]["wall_clock_s"] = 1.0
    current = artifact()
    current["rows"][0]["wall_clock_s"] = 1.001
    report = compare(baseline, current)
    assert report["regressions"] == [
        "rows[headline].wall_clock_s: expected 1.0, got 1.001"]


def test_missing_key_regresses():
    current = artifact()
    del current["rows"][1]["processed_events"]
    report = compare(artifact(), current)
    assert report["regressions"] == [
        "rows[headline-queued].processed_events: present in baseline, "
        "missing now"]


def test_new_key_regresses():
    current = artifact()
    current["rows"][0]["brand_new"] = 1
    current["python"] = "3.12.0"
    report = compare(artifact(), current)
    assert report["status"] == "regression"
    assert report["regressions"] == [
        "python: new (absent from baseline)",
        "rows[headline].brand_new: new (absent from baseline)"]


def test_reordered_labelled_rows_compare_ok():
    current = artifact()
    current["rows"].reverse()
    assert compare(artifact(), current)["status"] == "ok"


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_exit_codes(tmp_path, capsys):
    base = write(tmp_path / "base.json", artifact())
    same = write(tmp_path / "same.json", artifact())
    regressed_payload = artifact()
    regressed_payload["rows"][1]["sim_elapsed_s"] = 99.0
    regressed = write(tmp_path / "bad.json", regressed_payload)

    assert main(["diff", base, same]) == 0
    out = capsys.readouterr().out
    assert "ok" in out

    assert main(["diff", base, regressed]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "sim_elapsed_s" in out


def test_compare_files_names_both_files(tmp_path):
    base = write(tmp_path / "a.json", artifact())
    curr = write(tmp_path / "b.json", artifact())
    report = compare_files(base, curr)
    assert report["baseline"] == base
    assert report["current"] == curr
    assert report["status"] == "ok"


@pytest.mark.parametrize("flag", [["--wall-band", "8"], ["--band", "*x"],
                                  ["--ignore", "*x"], ["--report", "r.json"]])
def test_removed_flags_are_rejected(flag, tmp_path, capsys):
    """The comparison has one rule: there is no band, no ignore list and
    no report file to ask for."""
    base = write(tmp_path / "base.json", artifact())
    with pytest.raises(SystemExit) as caught:
        main(["diff", base, base, *flag])
    assert caught.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bogus", "flight", "critpath"])
def test_unknown_cli_command_rejected(command, capsys):
    """``diff`` is the only subcommand: a traced run and its critical-path
    report come from ``python -m repro.bench trace``."""
    with pytest.raises(SystemExit) as caught:
        main([command, "--ranks", "4", "--out", "x.json"])
    assert caught.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_help_lists_only_diff(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["--help"])
    assert caught.value.code == 0
    assert "{diff}" in capsys.readouterr().out
