"""Tests for the ``python -m repro.bench`` command-line interface."""

import json
import math

import pytest

from repro.bench.cli import build_parser, main


class TestParser:
    def test_the_commands_are_run_and_trace(self):
        assert "{run,trace}" in build_parser().format_usage()
        args = build_parser().parse_args(["run", "paper", "ablations"])
        assert (args.command, args.suites) == ("run", ["paper", "ablations"])
        assert build_parser().parse_args(["trace", "--seed", "3"]).seed == 3

    @pytest.mark.parametrize("argv", [
        ["nope"],
        ["exp1"], ["exp3"], ["abl1"], ["fut1"], ["all"],
        ["run", "paper", "--clients", "1,2"],
        ["run", "ablations", "--providers", "1,2"],
        ["run", "ablations", "--producers", "2"],
        ["run", "paper", "--storage-nodes", "2", "--region-kib", "8"],
    ])
    def test_experiment_subcommands_and_knobs_are_gone_not_ignored(
            self, argv, capsys):
        """What an experiment runs is its suite-table entry: the old
        per-experiment subcommands and flags are argparse errors."""
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestRunSuites:
    def test_run_writes_the_smoke_artifact_under_out(self, tmp_path, capsys):
        assert main(["run", "metadata", "--smoke",
                     "--out", str(tmp_path)]) == 0
        written = tmp_path / "BENCH_metadata.smoke.json"
        artifact = json.loads(written.read_text())
        assert artifact["suite"] == "metadata-read-path"
        assert artifact["smoke"] is True
        assert not (tmp_path / "BENCH_metadata.json").exists()
        output = capsys.readouterr().out
        assert str(written) in output
        assert "rpc_reduction_vs_per_node" in output

    def test_run_ablations_prints_one_table_per_experiment(self, tmp_path,
                                                           capsys):
        assert main(["run", "ablations", "--smoke",
                     "--out", str(tmp_path)]) == 0
        artifact = json.loads(
            (tmp_path / "BENCH_ablations.smoke.json").read_text())
        assert artifact["smoke"] is True
        assert {row["experiment"] for row in artifact["rows"]} \
            == {"EXP1b", "ABL1", "ABL2", "ABL3", "FUT1"}
        output = capsys.readouterr().out
        # each experiment's own columns head a table of its own
        for column in ("region_kib", "load_imbalance", "lock_wait_s",
                       "metadata_nodes", "consumer_read_latency_s"):
            assert column in output

    def test_unknown_suite_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "nope", "--smoke", "--out", str(tmp_path)])
        assert not list(tmp_path.iterdir())


class TestTrace:
    @pytest.mark.parametrize("network", ["bottleneck", "queued"])
    def test_trace_writes_the_critical_path_report_beside_it(
            self, network, tmp_path, capsys):
        out = tmp_path / "job.json"
        assert main(["trace", "--ranks", "4", "--blocks", "2",
                     "--network", network, "--out", str(out),
                     "--validate"]) == 0
        assert json.loads(out.read_text())["traceEvents"]
        critpath = tmp_path / "job.critpath.json"
        assert f"critpath: {critpath}" in capsys.readouterr().out
        report = json.loads(critpath.read_text())
        assert len(report["layers"]) == 6
        operations = report["operations"]
        assert operations["file.write_at_all"]["count"] == 4
        for name, entry in operations.items():
            assert set(entry["layers"]) == set(report["layers"])
            assert math.isclose(sum(entry["layers"].values()),
                                entry["end_to_end_s"],
                                rel_tol=1e-9, abs_tol=1e-12), name
