"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.benchmark == "tpcds"
        assert args.cluster == "x86"
        assert args.datasize == 300.0

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--benchmark", "ycsb"])

    def test_simulate_set_accumulates(self):
        args = build_parser().parse_args(
            ["simulate", "--set", "a=1", "--set", "b=2"]
        )
        assert args.set == ["a=1", "b=2"]

    def test_replay_eval_flags(self):
        assert build_parser().parse_args(["serve"]).replay_eval == "off"
        args = build_parser().parse_args(["serve", "--replay-eval", "race"])
        assert args.replay_eval == "race"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--replay-eval", "sometimes"])
        # tune never records a production run, so it has no replay mode.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--replay-eval", "race"])


class TestCommands:
    def test_simulate_runs(self, capsys):
        code = main([
            "simulate", "--benchmark", "scan", "--datasize", "100",
            "--set", "sql.shuffle.partitions=800",
            "--set", "shuffle.compress=true",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "slowest 10 queries" in out
        assert "total" in out

    def test_simulate_rejects_bad_set(self, capsys):
        assert main(["simulate", "--set", "nonsense"]) == 2

    def test_simulate_rejects_unknown_parameter(self, capsys):
        assert main(["simulate", "--set", "not.a.param=1"]) == 2

    def test_qcsa_runs(self, capsys):
        code = main([
            "qcsa", "--benchmark", "tpch", "--datasize", "100",
            "--samples", "4", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "CSQ" in out and "CIQ" in out

    def test_tune_writes_conf(self, tmp_path, capsys, monkeypatch):
        output = tmp_path / "spark-defaults.conf"
        code = main([
            "tune", "--benchmark", "scan", "--datasize", "100",
            "--iterations", "4", "--output", str(output), "--seed", "3",
        ])
        assert code == 0
        text = output.read_text()
        assert "spark.sql.shuffle.partitions" in text
        assert text.startswith("# Tuned by LOCAT")
