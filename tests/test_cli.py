"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_grid_command(self):
        args = build_parser().parse_args(["grid"])
        assert args.command == "grid"

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.sockets == [4, 8, 16, 32]
        assert args.comm == "gdr_tuned"

    def test_sweep_custom(self):
        args = build_parser().parse_args(
            ["sweep", "--sockets", "8", "--systems", "aoba-s", "--comm", "naive"]
        )
        assert args.sockets == [8]
        assert args.systems == ["aoba-s"]

    def test_forecast_options(self):
        args = build_parser().parse_args(
            ["forecast", "--source", "nankai", "--minutes", "0.5"]
        )
        assert args.source == "nankai"
        assert args.minutes == 0.5

    def test_invalid_comm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--comm", "telepathy"])

    def test_bench_and_compare_are_not_commands(self):
        parser = build_parser()
        for retired in ("bench", "compare"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([retired])
            assert exc.value.code == 2
        args = parser.parse_args(["retune", "--from-rundir", "X"])
        assert args.command == "retune"


class TestCommands:
    def test_grid_prints_table1(self, capsys):
        assert main(["grid"]) == 0
        out = capsys.readouterr().out
        assert "47,211,444" in out
        assert "84" in out

    def test_sweep_one_point(self, capsys):
        assert main(["sweep", "--sockets", "8", "--systems", "aoba-s"]) == 0
        out = capsys.readouterr().out
        assert "aoba-s" in out
        assert "s" in out

    def test_balance_runs(self, capsys):
        assert main(["balance", "--ranks", "16"]) == 0
        out = capsys.readouterr().out
        assert "perf model" in out
        assert "optimized" in out
