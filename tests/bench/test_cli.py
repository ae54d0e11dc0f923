"""Tests for the ``python -m repro.bench`` command-line interface."""

import json

import pytest

from repro.bench.cli import build_parser, main, run_experiment, settings_from_args


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["exp1"])
        assert args.experiment == "exp1"
        assert args.clients == [1, 2, 4, 8]
        assert args.storage_nodes == 8

    def test_client_list_parsing(self):
        args = build_parser().parse_args(["exp2", "--clients", "2,4,16"])
        assert args.clients == [2, 4, 16]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_settings_from_args(self):
        args = build_parser().parse_args(
            ["exp1", "--clients", "1,2", "--region-kib", "16",
             "--overlap", "0.25", "--storage-nodes", "3"])
        settings = settings_from_args(args)
        assert settings.client_counts == (1, 2)
        assert settings.region_size == 16 * 1024
        assert settings.overlap_fraction == 0.25
        assert settings.num_storage_nodes == 3


class TestExecution:
    def _args(self, name, extra=()):
        return build_parser().parse_args(
            [name, "--clients", "1,2", "--storage-nodes", "2",
             "--regions-per-client", "2", "--region-kib", "8", *extra])

    def test_exp1_tables(self):
        args = self._args("exp1")
        tables = run_experiment("exp1", args)
        assert len(tables) == 1
        assert "EXP1" in tables[0]
        assert "versioning" in tables[0]

    def test_abl1_tables(self):
        args = self._args("abl1", ["--providers", "1,2"])
        tables = run_experiment("abl1", args)
        assert "ABL1" in tables[0]

    def test_fut1_tables(self):
        args = self._args("fut1", ["--producers", "2", "--consumers", "1",
                                   "--iterations", "1"])
        tables = run_experiment("fut1", args)
        assert "FUT1" in tables[0]
        assert "posix-locking" in tables[0]

    def test_main_prints_tables(self, capsys):
        exit_code = main(["exp3", "--clients", "1,2", "--storage-nodes", "2",
                          "--regions-per-client", "2", "--region-kib", "8"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "speedup" in output


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
        assert "rpc_reduction_vs_baseline" in output

    def test_unknown_suite_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "nope", "--smoke", "--out", str(tmp_path)])
        assert not list(tmp_path.iterdir())
