"""End-to-end kill-and-resume tests (repro.persist.runner).

The tentpole guarantee: a forecast killed by SIGTERM mid-run and
resumed with ``repro resume`` reaches a final state bitwise identical
to an uninterrupted run — including the incrementally streamed gauge
series — and a torn newest snapshot silently falls back to the
previous valid one.
"""

import json
import os
import signal

import pytest

from repro.cli import main
from repro.core import RTiModel
from repro.errors import NumericalError, PersistError
from repro.obs.log import ServiceEvent
from repro.persist import (
    JOURNAL_VERSION,
    SCHEMA_VERSION,
    ProductStreamer,
    RunStore,
    build_scenario,
    grid_fingerprint,
    resume_run,
    start_run,
)
from repro.resilience import (
    CheckpointRing,
    FaultSpec,
    RecoveryEngine,
    corrupt_state,
)
from tests.test_persist import (
    assert_models_bitwise_equal,
    tiny_model,
)

SPEC = {
    "grid": {
        "ratio": 3,
        "levels": [
            {"index": 1, "dx": 300.0, "blocks": [[0, 1, 0, 0, 12, 12]]},
            {"index": 2, "dx": 100.0, "blocks": [[1, 2, 9, 9, 12, 12]]},
        ],
    },
    "bathymetry": {"type": "flat", "depth": 50.0},
    "dt": 1.0,
    "n_steps": 30,
    "source": {
        "type": "gaussian",
        "x0": 1_800.0,
        "y0": 1_800.0,
        "amplitude": 1.0,
        "sigma": 600.0,
    },
}
CHECKPOINT_EVERY = 5


def run_until_killed(rundir, kill_at_step: int) -> RunStore:
    """Start SPEC persistently and SIGTERM our own process mid-run.

    Mirrors :func:`repro.persist.runner.start_run` exactly, but injects
    the kill from the step monitor; the installed interrupt guard
    captures a final snapshot, journals the interruption, and unwinds
    with :class:`KeyboardInterrupt` — the same crash surface a real
    ``kill <pid>`` produces.
    """
    built = build_scenario(SPEC)
    store = RunStore(rundir, create=True)
    model = RTiModel(built.grid, built.bathymetry, built.config)
    model.set_initial_condition(built.source)
    store.run_events.emit(ServiceEvent(None, "run_start", fields=dict(
        journal_version=JOURNAL_VERSION,
        schema_version=SCHEMA_VERSION,
        scenario=built.spec,
        n_steps=built.n_steps,
        checkpoint_every=CHECKPOINT_EVERY,
        grid_fingerprint=grid_fingerprint(built.grid, built.config.dtype),
    )))
    streamer = ProductStreamer(store, model)

    class KillSwitch:
        def after_step(self, m):
            streamer.after_step(m)
            if m.step_count == kill_at_step:
                os.kill(os.getpid(), signal.SIGTERM)

    with pytest.raises(KeyboardInterrupt):
        RecoveryEngine(
            model,
            built.n_steps * built.config.dt,
            monitor=KillSwitch(),
            ring=CheckpointRing(store=store),
            checkpoint_every=CHECKPOINT_EVERY,
            sink=store.run_events,
        ).run()
    return store


def reference_run() -> tuple[RTiModel, list[str]]:
    """The uninterrupted ground truth: final model + gauge csv lines."""
    built = build_scenario(SPEC)
    model = RTiModel(built.grid, built.bathymetry, built.config)
    model.set_initial_condition(built.source)

    class _Sink:
        def __init__(self):
            import tempfile

            self.dir = tempfile.mkdtemp()
            self.store = RunStore(self.dir, create=True)

    sink = _Sink()
    streamer = ProductStreamer(sink.store, model)
    model.run(built.n_steps, monitor=streamer)
    lines = streamer.gauge_path.read_text().splitlines()
    return model, lines


class TestKillAndResume:
    def test_sigterm_capture_then_resume_is_bitwise(self, tmp_path):
        store = run_until_killed(tmp_path / "run", kill_at_step=17)

        events = [ev["event"] for ev in store.events()]
        assert "interrupted" in events
        interrupted = store.first_event("interrupted")
        assert interrupted["signal"] == "SIGTERM"
        assert interrupted["snapshotted"] is True
        assert store.status() == "incomplete"

        resumed = resume_run(tmp_path / "run", echo=print)
        reference, ref_lines = reference_run()
        assert_models_bitwise_equal(reference, resumed)

        got_lines = (
            store.products_dir / "gauges.csv"
        ).read_text().splitlines()
        assert got_lines == ref_lines
        assert store.status() == "complete"

    def test_resume_from_older_snapshot_without_signal_capture(self, tmp_path):
        # A hard crash (SIGKILL, power loss) leaves no final snapshot —
        # only the periodic ones.  Simulate by dropping the signal-capture
        # snapshot and resuming from the last periodic checkpoint.
        store = run_until_killed(tmp_path / "run", kill_at_step=17)
        newest = store.snapshot_paths()[-1]
        manifest = json.loads((newest / "manifest.json").read_text())
        if manifest["step"] == 17:  # the signal-capture snapshot
            import shutil

            shutil.rmtree(newest)
        resumed = resume_run(tmp_path / "run", echo=print)
        reference, ref_lines = reference_run()
        assert_models_bitwise_equal(reference, resumed)
        got = (store.products_dir / "gauges.csv").read_text().splitlines()
        assert got == ref_lines

    def test_torn_newest_snapshot_falls_back(self, tmp_path):
        store = run_until_killed(tmp_path / "run", kill_at_step=17)
        newest = store.snapshot_paths()[-1]
        victim = newest / "level_2.npz"
        victim.write_bytes(victim.read_bytes()[:100])  # torn write

        warnings: list[str] = []
        resumed = resume_run(tmp_path / "run", echo=warnings.append)
        assert any(
            "skipping invalid snapshot" in msg and newest.name in msg
            for msg in warnings
        )
        reference, _ = reference_run()
        assert_models_bitwise_equal(reference, resumed)

    def test_all_snapshots_corrupt_restarts_from_zero(self, tmp_path):
        store = run_until_killed(tmp_path / "run", kill_at_step=17)
        for path in store.snapshot_paths():
            (path / "manifest.json").write_text("garbage")
        messages: list[str] = []
        resumed = resume_run(tmp_path / "run", echo=messages.append)
        assert any("restarting from step 0" in m for m in messages)
        reference, _ = reference_run()
        assert_models_bitwise_equal(reference, resumed)

    def test_partial_products_survive_crash(self, tmp_path):
        store = run_until_killed(tmp_path / "run", kill_at_step=17)
        lines = (store.products_dir / "gauges.csv").read_text().splitlines()
        assert lines[0].startswith("time,")
        assert len(lines) == 1 + 17  # header + one row per completed step

    def test_resume_requires_interrupted_run(self, tmp_path):
        with pytest.raises(PersistError, match="does not exist"):
            resume_run(tmp_path / "missing", echo=print)
        start_run(tmp_path / "done", SPEC, checkpoint_every=10, echo=print)
        with pytest.raises(PersistError, match="already completed"):
            resume_run(tmp_path / "done", echo=print)

    def test_journal_records_full_lifecycle(self, tmp_path):
        store = run_until_killed(tmp_path / "run", kill_at_step=17)
        resume_run(tmp_path / "run", echo=print)
        events = [ev["event"] for ev in store.events()]
        assert events[0] == "run_start"
        assert "interrupted" in events
        assert "resume" in events
        assert events[-1] == "complete"
        resume = store.first_event("resume")
        assert resume["from_step"] in (15, 17)  # snapshot it restored


class TestStartRun:
    def test_start_run_completes_and_matches_reference(self, tmp_path):
        model = start_run(tmp_path / "run", SPEC, checkpoint_every=10, echo=print)
        reference, ref_lines = reference_run()
        assert_models_bitwise_equal(reference, model)
        store = RunStore(tmp_path / "run", create=False)
        got = (store.products_dir / "gauges.csv").read_text().splitlines()
        assert got == ref_lines

    def test_start_run_refuses_occupied_rundir(self, tmp_path):
        start_run(tmp_path / "run", SPEC, checkpoint_every=10, echo=print)
        with pytest.raises(PersistError, match="already holds a run"):
            start_run(tmp_path / "run", SPEC, echo=print)



class TestResumeCli:
    def test_forecast_rundir_then_resume_command(self, tmp_path, capsys):
        store = run_until_killed(tmp_path / "run", kill_at_step=17)
        assert main(["resume", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "restored snapshot" in out
        assert "run complete" in out
        assert "max water level" in out
        assert store.status() == "complete"

    def test_resume_command_reports_missing_run(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "missing")]) == 1
        assert "error:" in capsys.readouterr().out

    def test_forecast_resume_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["forecast", "--rundir", "d", "--resume",
             "--checkpoint-every", "7"]
        )
        assert args.rundir == "d"
        assert args.resume is True
        assert args.checkpoint_every == 7


def snapshot_steps(store: RunStore) -> list[int]:
    return [
        json.loads((p / "manifest.json").read_text())["step"]
        for p in store.snapshot_paths()
    ]


def poison_streamer_at(monkeypatch, step: int) -> None:
    """Make the persistent run's monitor, the product streamer, turn the
    state of every block non-finite right after *step* (a parent cell
    under a child would be overwritten by the child's restriction)."""
    real = ProductStreamer.after_step

    def poisoned(self, model):
        real(self, model)
        if model.step_count == step:
            for bid in model.states:
                corrupt_state(
                    model.states, FaultSpec(kind="nan", step=step, block=bid)
                )

    monkeypatch.setattr(ProductStreamer, "after_step", poisoned)


class TestOneGuardedLoop:
    """Persistent and resilient runs share RecoveryEngine's loop: its
    absolute snapshot cadence, its signal capture and its refusal to
    archive non-finite state."""

    def test_fresh_run_snapshots_only_at_multiples(self, tmp_path):
        start_run(tmp_path / "run", SPEC, checkpoint_every=5, echo=print)
        store = RunStore(tmp_path / "run", create=False)
        assert snapshot_steps(store) == [0, 5, 10, 15, 20, 25]

    def test_resumed_run_keeps_the_alignment(self, tmp_path):
        store = run_until_killed(tmp_path / "run", kill_at_step=17)
        assert snapshot_steps(store) == [0, 5, 10, 15, 17]  # 17: the signal
        resume_run(tmp_path / "run", echo=print)
        assert snapshot_steps(store) == [0, 5, 10, 15, 17, 20, 25]
        # Resumed at a multiple of the cadence: that step is on disk
        # already and is not written again.
        store = run_until_killed(tmp_path / "at15", kill_at_step=15)
        assert snapshot_steps(store) == [0, 5, 10, 15]
        resume_run(tmp_path / "at15", echo=print)
        assert snapshot_steps(store) == [0, 5, 10, 15, 20, 25]

    def test_a_drifted_clock_ends_on_the_step_count(self):
        # The clock is a running sum of dt: 36,000 steps of 0.1 s end
        # ~2e-9 s short of 3,600 s, 216,000 ~3e-8 s short of 21,600 s.
        # A horizon of n steps must still end at step n, not n + 1.
        model = tiny_model()
        model.step_count, model.time = 100, 100.0 - 5e-8
        engine = RecoveryEngine(model, 105.0)
        assert engine.run().step_count == 105
        assert engine.completed

    def test_nonfinite_state_publishes_nothing(self, tmp_path, monkeypatch):
        poison_streamer_at(monkeypatch, 12)
        with pytest.raises(NumericalError, match="non-finite"):
            start_run(tmp_path / "run", SPEC, checkpoint_every=5, echo=print)
        store = RunStore(tmp_path / "run", create=False)
        assert store.status() == "incomplete"
        assert snapshot_steps(store) == [0, 5, 10]

    def test_cli_reports_a_nonfinite_run_in_one_line(
        self, tmp_path, monkeypatch, capsys
    ):
        poison_streamer_at(monkeypatch, 3)
        code = main([
            "forecast", "--rundir", str(tmp_path / "run"),
            "--minutes", "0.05", "--checkpoint-every", "5",
        ])
        out = capsys.readouterr().out
        assert code == 1
        errors = [ln for ln in out.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "non-finite" in errors[0]
        assert "run complete" not in out

    def test_cli_reports_an_interrupted_resilient_run_in_one_line(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.resilience as resilience

        def interrupted(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(resilience, "run_resilient_forecast", interrupted)
        code = main([
            "forecast", "--rundir", str(tmp_path / "run"),
            "--deadline", "30", "--minutes", "0.05",
        ])
        assert code == 130
        assert capsys.readouterr().out.splitlines()[-1] == "interrupted"

    def test_sigterm_during_resilient_forecast_is_journaled(
        self, tmp_path, monkeypatch
    ):
        import repro.resilience.forecast as forecast_mod
        from repro.resilience import HealthMonitor, run_resilient_forecast

        class KillSwitch(HealthMonitor):
            def after_step(self, model):
                super().after_step(model)
                if model.step_count == 7:
                    os.kill(os.getpid(), signal.SIGTERM)

        class Unguarded(Exception):
            pass

        def unguarded(_signum, _frame):
            raise Unguarded("SIGTERM reached the caller's handler")

        monkeypatch.setattr(forecast_mod, "HealthMonitor", KillSwitch)
        built = build_scenario(SPEC)
        store = RunStore(tmp_path / "run")
        # Without the engine's guard the signal must fail this test, not
        # terminate the test process.
        previous = signal.signal(signal.SIGTERM, unguarded)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_resilient_forecast(
                    built.grid, built.bathymetry, config=built.config,
                    source=built.source, horizon_s=20.0, store=store,
                )
        finally:
            signal.signal(signal.SIGTERM, previous)
        interrupted = store.first_event("interrupted")
        assert interrupted["signal"] == "SIGTERM"
        assert interrupted["snapshotted"] is True
        assert interrupted["step"] == 7
        assert snapshot_steps(store) == [0, 7]
