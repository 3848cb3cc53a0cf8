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


class TestDistributedForecast:
    """``forecast --ranks N`` reports and writes what the single-process
    forecast of the same scenario does."""

    @staticmethod
    def max_line(out):
        return [ln for ln in out.splitlines() if ln.startswith("max water level")]

    def test_ranks_print_the_single_process_max_water_level(self, capsys):
        assert main(["forecast", "--minutes", "0.2"]) == 0
        single = self.max_line(capsys.readouterr().out)
        assert main(["forecast", "--ranks", "2", "--minutes", "0.2"]) == 0
        assert self.max_line(capsys.readouterr().out) == single
        assert len(single) == 1

    def test_a_rundir_gets_start_complete_and_the_bitwise_eta(self, tmp_path, capsys):
        import numpy as np

        from repro.core import RTiModel
        from repro.persist import RunStore, build_scenario

        rundir = tmp_path / "D"
        argv = ["forecast", "--ranks", "2", "--minutes", "0.2", "--rundir", str(rundir)]
        assert main(argv) == 0
        store = RunStore(rundir)
        assert [e["event"] for e in store.events()] == [
            "distributed_start", "distributed_complete",
        ]
        (product,) = (rundir / "products").glob("distributed_eta_step_*.npz")
        assert product.name == store.first_event("distributed_complete")["product"]

        built = build_scenario({"minutes": 0.2, "source": {"type": "gaussian"}})
        model = RTiModel(built.grid, built.bathymetry, built.config)
        model.set_initial_condition(built.source)
        model.run(built.n_steps)
        with np.load(product) as got:
            assert sorted(got.files) == sorted(f"b{bid}" for bid in model.states)
            for bid, st in model.states.items():
                assert got[f"b{bid}"].tobytes() == st.eta_interior().tobytes()

    def test_sigterm_prints_one_interrupted_line_and_exits_130(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        rundir = tmp_path / "D"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "forecast", "--ranks", "2",
             "--minutes", "60", "--rundir", str(rundir)],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            journal = rundir / "journal.jsonl"
            deadline = time.monotonic() + 60
            while not (journal.exists() and journal.read_text()):
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.05)
            time.sleep(0.5)  # the ranks are stepping
            proc.send_signal(signal.SIGTERM)
            out, _err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 130
        assert out.splitlines()[-1] == "interrupted"
        assert out.count("interrupted") == 1
        from repro.persist import RunStore

        assert [e["event"] for e in RunStore(rundir).events()] == [
            "distributed_start", "interrupted",
        ]


class TestIgnoredFlags:
    """A flag the path the others pick would ignore is refused: exit 2,
    one line that names it, nothing run or written."""

    @pytest.mark.parametrize("argv, flag", [
        (["--ranks", "2", "--integrity-every", "1"], "--integrity-every"),
        (["--ranks", "2", "--scrub-every", "4"], "--scrub-every"),
        (["--scrub-every", "4"], "--scrub-every"),
        (["--resume"], "--resume"),
        (["--ranks", "2", "--rundir", "{tmp}", "--resume"], "--resume"),
        (["--spare-ranks", "1"], "--spare-ranks"),
        (["--max-rank-failures", "3"], "--max-rank-failures"),
        (["--recovery-policy", "shrink"], "--recovery-policy"),
        (["--hedge-stragglers"], "--hedge-stragglers"),
    ])
    def test_refused_in_one_line(self, argv, flag, tmp_path, capsys):
        rundir = tmp_path / "run"
        argv = [str(rundir) if a == "{tmp}" else a for a in argv]
        assert main(["forecast", "--minutes", "0.05", *argv]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("error: ") and flag in line
        assert not rundir.exists()
