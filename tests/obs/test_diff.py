"""Artifact diff gate: exact rules, wall bands, and CLI exit codes."""

import json

import pytest

from repro.obs.cli import main
from repro.obs.diff import (
    DEFAULT_WALL_BAND,
    MIN_GATED_WALL_S,
    compare,
    compare_files,
    flatten,
    write_report,
)


def artifact():
    """A miniature BENCH_simcore-shaped artifact."""
    return {
        "python": "3.11.1",
        "rows": [
            {"label": "headline", "sim_elapsed_s": 0.125,
             "processed_events": 5000, "wall_clock_s": 1.0,
             "events_per_sec": 5000, "read_digest": "abc"},
            {"label": "headline-queued", "sim_elapsed_s": 0.25,
             "processed_events": 7000, "wall_clock_s": 2.0,
             "events_per_sec": 3500, "read_digest": "abc"},
        ],
        "events_per_sec": 4250,
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
    assert report["notes"] == []
    assert report["compared"] > 0
    assert report["wall_band"] == DEFAULT_WALL_BAND


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


def test_wall_clock_within_band_passes_beyond_band_regresses():
    slower = artifact()
    slower["rows"][0]["wall_clock_s"] = 3.9   # < 4x baseline of 1.0
    assert compare(artifact(), slower)["status"] == "ok"
    slower["rows"][0]["wall_clock_s"] = 4.1
    report = compare(artifact(), slower)
    assert report["status"] == "regression"
    assert any("wall_clock_s" in line for line in report["regressions"])
    # improvements never flag
    faster = artifact()
    faster["rows"][0]["wall_clock_s"] = 0.01
    assert compare(artifact(), faster)["status"] == "ok"


def test_throughput_family_regresses_downward_only():
    slower = artifact()
    slower["rows"][0]["events_per_sec"] = 5000 / (DEFAULT_WALL_BAND * 2)
    report = compare(artifact(), slower)
    assert report["status"] == "regression"
    faster = artifact()
    faster["rows"][0]["events_per_sec"] = 10 ** 9
    assert compare(artifact(), faster)["status"] == "ok"
    # a value derived outside any row is gated the same way
    dropped = artifact()
    dropped["events_per_sec"] = 4250 / (DEFAULT_WALL_BAND * 2)
    assert compare(artifact(), dropped)["status"] == "regression"


def test_wall_family_none_transitions_are_notes_not_regressions():
    baseline = artifact()
    baseline["events_per_sec"] = None
    report = compare(baseline, artifact())
    assert report["status"] == "ok"
    assert any(note.startswith("events_per_sec") for note in report["notes"])


def test_non_positive_wall_baseline_has_no_band_to_apply():
    """A tracing overhead measured as negative (noise around zero) used to
    get a zero-width band that failed every later run."""
    baseline = artifact()
    baseline["tracing_overhead_pct"] = -1.3
    current = artifact()
    current["tracing_overhead_pct"] = 6.2
    report = compare(baseline, current)
    assert report["status"] == "ok"
    assert any("tracing_overhead_pct" in note and "no band" in note
               for note in report["notes"])
    # same for a zero baseline of the higher-is-better family
    baseline["rows"][0]["events_per_sec"] = 0
    assert compare(baseline, current)["status"] == "ok"
    # an unchanged non-positive value is not worth a note
    assert compare(baseline, baseline)["notes"] == []
    # and a positive baseline is still gated
    baseline["tracing_overhead_pct"] = 1.0
    current["tracing_overhead_pct"] = 1.0 * DEFAULT_WALL_BAND + 0.5
    assert compare(baseline, current)["status"] == "regression"


def test_sub_second_baseline_timings_are_not_gated():
    """Smoke suites time ~10 ms points: a 4x band around that is scheduler
    noise, so leaving it is a note — for the timing itself, for a rate
    derived from it in the same row, and for a top-level value derived
    from rows that all ran below the floor."""
    baseline = artifact()
    baseline["tracing_overhead_pct"] = 5.0
    # a timing outside the rows is not a row of this run
    baseline["reference"] = {"wall_clock_s": 27.94}
    for row, wall in zip(baseline["rows"], (0.012, 0.02)):
        row["wall_clock_s"] = wall
    assert max(row["wall_clock_s"] for row in baseline["rows"]) \
        < MIN_GATED_WALL_S
    current = artifact()
    current["tracing_overhead_pct"] = 90.0
    current["reference"] = {"wall_clock_s": 27.94}
    current["rows"][0]["wall_clock_s"] = 0.9
    current["rows"][0]["events_per_sec"] = 50
    current["rows"][1]["wall_clock_s"] = 0.02
    report = compare(baseline, current)
    assert report["status"] == "ok"
    for name in ("rows[headline].wall_clock_s", "rows[headline].events_per_sec",
                 "tracing_overhead_pct"):
        assert any(note.startswith(name) and "not gated" in note
                   for note in report["notes"]), name
    # one row at or above the floor is gated again, and so is what no row owns
    baseline["rows"][1]["wall_clock_s"] = MIN_GATED_WALL_S
    current["rows"][1]["wall_clock_s"] = MIN_GATED_WALL_S * 5
    report = compare(baseline, current)
    assert any(line.startswith("rows[headline-queued].wall_clock_s")
               for line in report["regressions"])
    assert any(line.startswith("tracing_overhead_pct")
               for line in report["regressions"])
    assert not any("rows[headline]." in line
                   for line in report["regressions"])
    # simulation-derived values stay exact however short the run was
    current["rows"][0]["sim_elapsed_s"] = 0.126
    assert any("sim_elapsed_s" in line
               for line in compare(baseline, current)["regressions"])


def test_ignored_provenance_and_extra_patterns():
    current = artifact()
    current["python"] = "3.12.0"
    assert compare(artifact(), current)["status"] == "ok"
    current["rows"][0]["read_digest"] = "zzz"
    assert compare(artifact(), current)["status"] == "regression"
    report = compare(artifact(), current,
                     ignore_patterns=("python", "*read_digest"))
    assert report["status"] == "ok"


def test_missing_key_regresses_new_key_notes():
    current = artifact()
    del current["rows"][1]["processed_events"]
    current["rows"][0]["brand_new"] = 1
    report = compare(artifact(), current)
    assert any("missing now" in line for line in report["regressions"])
    assert any("brand_new" in note for note in report["notes"])


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_exit_codes_and_report_file(tmp_path, capsys):
    base = write(tmp_path / "base.json", artifact())
    same = write(tmp_path / "same.json", artifact())
    regressed_payload = artifact()
    regressed_payload["rows"][1]["sim_elapsed_s"] = 99.0
    regressed = write(tmp_path / "bad.json", regressed_payload)
    report_path = tmp_path / "report.json"

    assert main(["diff", base, same,
                 "--report", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["status"] == "ok"
    out = capsys.readouterr().out
    assert "ok" in out

    assert main(["diff", base, regressed]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "sim_elapsed_s" in out

    # a planted wall regression is waved through by a wider band
    slow_payload = artifact()
    slow_payload["rows"][0]["wall_clock_s"] = 5.0
    slow = write(tmp_path / "slow.json", slow_payload)
    assert main(["diff", base, slow]) == 1
    capsys.readouterr()
    assert main(["diff", base, slow, "--wall-band", "8"]) == 0
    capsys.readouterr()
    # --ignore silences a named exact regression
    assert main(["diff", base, regressed,
                 "--ignore", "*sim_elapsed_s"]) == 0


def test_compare_files_and_write_report_round_trip(tmp_path):
    base = write(tmp_path / "a.json", artifact())
    curr = write(tmp_path / "b.json", artifact())
    report = compare_files(base, curr)
    assert report["baseline"] == base
    assert report["current"] == curr
    out = tmp_path / "r.json"
    write_report(report, str(out))
    assert json.loads(out.read_text()) == report


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
