"""One forecast run directory: one driver, one vocabulary, one status rule.

Every single-process ``--rundir`` run — guard flags or not — and every
``repro resume`` go through :func:`repro.resilience.run_resilient_forecast`
with the directory's store: ``run_start`` journals the scenario and every
guard setting, a resume re-arms them and replays bitwise from the restored
snapshot, a rollback rewinds the streamed products, a level drop moves the
gauges to the model that is left, an aborted run never journals
``complete``, and one rule (:func:`repro.persist.run_status`) says what a
directory holds and whether ``repro resume`` takes it.
"""

import os
import signal

import pytest

import repro.cli as cli
from repro.cli import main
from repro.core.gauges import GaugeRecorder
from repro.errors import NumericalError
from repro.obs.inspect import load_rundir, render_report
from repro.obs.log import RunEvents, ServiceEvent, counted
from repro.persist import (
    ProductStreamer,
    RunStore,
    default_stations,
    run_status,
    start_run,
)
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RecoveryEngine,
    run_resilient_forecast,
)
from repro.validation import FlatBathymetry
from tests.test_chaos_matrix import config as chaos_config
from tests.test_chaos_matrix import nested_grid
from tests.test_chaos_matrix import source as chaos_source
from tests.test_persist import assert_models_bitwise_equal, tiny_model
from tests.test_resume import SPEC, poison_streamer_at, snapshot_steps

#: A short mini-Kochi forecast: 60 steps, snapshots every 10.
FORECAST = ["--minutes", "0.1", "--checkpoint-every", "10"]
KILL_AT = 45


def kill_at(monkeypatch, step: int) -> None:
    """SIGTERM this process once, right after the product streamer has
    streamed *step* — the crash surface a real ``kill <pid>`` produces."""
    real = ProductStreamer.after_step
    fired = []

    def killing(self, model):
        real(self, model)
        if model.step_count == step and not fired:
            fired.append(step)
            os.kill(os.getpid(), signal.SIGTERM)

    monkeypatch.setattr(ProductStreamer, "after_step", killing)


def finished_models(monkeypatch) -> list:
    """The model each CLI run printed its products from."""
    seen = []
    real = cli._print_products

    def keep(model, grid):
        seen.append(model)
        real(model, grid)

    monkeypatch.setattr(cli, "_print_products", keep)
    return seen


def gauges(rundir) -> bytes:
    return (rundir / "products" / "gauges.csv").read_bytes()


def events(rundir) -> list[str]:
    return [ev["event"] for ev in RunStore(rundir, create=False).events()]


def seed_firing_before(step: int, n_steps: int) -> int:
    """A fault seed of ``--fault-seed`` whose NaN faults all fire before
    *step* (stragglers only slow the simulated clock)."""
    from repro.topo import build_mini_kochi

    n_blocks = build_mini_kochi().grid.n_blocks
    for seed in range(1, 100):
        plan = FaultPlan.random(seed, kinds=("nan", "straggler"), n_faults=3,
                                n_ranks=1, n_steps=n_steps, n_blocks=n_blocks)
        nan_steps = [f.step for f in plan.faults if f.kind == "nan"]
        if nan_steps and max(nan_steps) < step:
            return seed
    raise AssertionError("no seed fires every fault early")


# -- every --rundir run resumes bitwise ------------------------------------


@pytest.mark.parametrize("flags", [
    [],
    ["--integrity-every", "1"],
    ["--fault-seed", str(seed_firing_before(KILL_AT, 60))],
], ids=["unguarded", "integrity", "faults"])
def test_every_rundir_run_resumes_bitwise(flags, tmp_path, monkeypatch, capsys):
    whole, killed = tmp_path / "whole", tmp_path / "killed"
    models = finished_models(monkeypatch)
    assert main(["forecast", *FORECAST, *flags, "--rundir", str(whole)]) == 0
    (reference,) = models

    kill_at(monkeypatch, KILL_AT)
    assert main(["forecast", *FORECAST, *flags, "--rundir", str(killed)]) == 130
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == (
        f"interrupted — continue later with: repro resume {killed}"
    )
    before = events(killed)
    assert before[0] == "run_start" and before[-1] == "interrupted"
    if "--fault-seed" in flags:  # the faults fired before the kill
        assert "recovery" in before
    monkeypatch.undo()
    models = finished_models(monkeypatch)
    assert main(["resume", str(killed)]) == 0
    (resumed,) = models
    assert "run complete" in capsys.readouterr().out

    assert_models_bitwise_equal(reference, resumed)
    assert gauges(killed) == gauges(whole)
    after = events(killed)
    assert after[:len(before)] == before  # the journal keeps both legs
    assert after[len(before)] == "resume" and after[-1] == "complete"
    assert after.count("run_start") == after.count("complete") == 1


def test_a_deadline_run_is_not_resumed(tmp_path, monkeypatch, capsys):
    rundir = tmp_path / "run"
    kill_at(monkeypatch, 20)
    argv = ["forecast", *FORECAST, "--deadline", "1000", "--rundir", str(rundir)]
    assert main(argv) == 130
    assert capsys.readouterr().out.splitlines()[-1] == "interrupted"
    journal = (rundir / "journal.jsonl").read_bytes()
    for again in (["resume", str(rundir)],
                  ["forecast", "--rundir", str(rundir), "--resume"]):
        assert main(again) == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("error: ") and "deadline" in line
        assert "submission" in line
        assert (rundir / "journal.jsonl").read_bytes() == journal


# -- guards and cadences mean one thing on every single-process path --------


def test_a_guarded_rundir_run_streams_and_keeps_the_cadence(tmp_path, capsys):
    rundir = tmp_path / "run"
    argv = ["forecast", "--minutes", "0.05", "--checkpoint-every", "5",
            "--deadline", "60", "--rundir", str(rundir)]
    assert main(argv) == 0
    store = RunStore(rundir, create=False)
    start = store.first_event("run_start")
    assert start["deadline_s"] == 60 and start["checkpoint_every"] == 5
    assert start["fault_plan"] is None and start["integrity_every"] == 0
    steps = start["n_steps"]
    assert snapshot_steps(store) == list(range(0, steps, 5))
    rows = gauges(rundir).decode().splitlines()
    assert len(rows) == 1 + steps  # header + one row per step
    complete = store.first_event("complete")
    assert complete["step"] == steps and complete["status"] == "complete"
    assert events(rundir).count("complete") == 1
    assert (rundir / "physics.json").exists()


def test_run_start_journals_the_fault_plan_it_replays(tmp_path):
    plan = FaultPlan([FaultSpec(kind="nan", step=12, block=1, field="z")])
    model = start_run(tmp_path / "faulty", SPEC, checkpoint_every=5,
                      fault_plan=plan)
    clean = start_run(tmp_path / "clean", SPEC, checkpoint_every=5)
    store = RunStore(tmp_path / "faulty", create=False)
    assert FaultPlan.from_dict(
        store.first_event("run_start")["fault_plan"]
    ).to_dict() == plan.to_dict()
    # One rollback policy: the rollback rewound the streamed gauges, so
    # the products are the clean run's, byte for byte.
    rollback = [ev for ev in store.events() if ev.get("kind") == "rollback"]
    assert len(rollback) == 1
    assert_models_bitwise_equal(clean, model)
    assert gauges(tmp_path / "faulty") == gauges(tmp_path / "clean")


def test_an_aborted_guarded_run_never_journals_complete(tmp_path, monkeypatch):
    poison_streamer_at(monkeypatch, 12)
    with pytest.raises(NumericalError, match="non-finite") as exc:
        start_run(tmp_path / "run", SPEC, checkpoint_every=5, deadline_s=1e6,
                  integrity_every=1)
    assert "run stopped at step" in str(exc.value)
    store = RunStore(tmp_path / "run", create=False)
    assert store.status() == "incomplete"
    assert "complete" not in events(tmp_path / "run")
    assert snapshot_steps(store) == [0, 5, 10]


def test_a_level_drop_moves_the_gauges_to_the_model_left(tmp_path):
    store = RunStore(tmp_path / "run")
    grid = nested_grid()
    # A straggler from step 20 on blows the budget: the finest level goes.
    slow = FaultPlan([FaultSpec(kind="straggler", rank=0, step=20, span=100,
                                factor=50.0)])
    report = run_resilient_forecast(
        grid, FlatBathymetry(50.0), config=chaos_config(),
        source=chaos_source(), horizon_s=40.0, deadline_s=0.05, store=store,
        fault_plan=slow, checkpoint_every=5,
    )
    (drop,) = [ev for ev in report.degradations if ev.kind == "drop_level"]
    final = report.model
    assert final.grid.n_levels < grid.n_levels
    assert final.step_count > drop.fields["step"]
    fresh = GaugeRecorder(final, default_stations(grid))
    fresh.record()
    last = gauges(tmp_path / "run").decode().splitlines()[-1].split(",")
    assert float(last[0]) == pytest.approx(final.time)
    assert last[1:] == [f"{g.eta[-1]:.9e}" for g in fresh.gauges]


# -- one status rule --------------------------------------------------------


def persistent(rundir, monkeypatch):
    start_run(rundir, SPEC, checkpoint_every=5)


def interrupted(rundir, monkeypatch):
    kill_at(monkeypatch, 17)
    with pytest.raises(KeyboardInterrupt):
        start_run(rundir, SPEC, checkpoint_every=5)


def interrupted_deadline(rundir, monkeypatch):
    kill_at(monkeypatch, 17)
    with pytest.raises(KeyboardInterrupt):
        start_run(rundir, SPEC, checkpoint_every=5, deadline_s=1e6)


def distributed(rundir, monkeypatch):
    assert main(["forecast", "--ranks", "2", "--minutes", "0.05",
                 "--rundir", str(rundir)]) == 0


@pytest.mark.parametrize("run, status, shown, resumable", [
    (persistent, "complete", "run complete", False),
    (interrupted, "incomplete", "run interrupted (resumable)", True),
    (interrupted_deadline, "incomplete", "run interrupted", False),
    (distributed, "complete", "run complete", False),
], ids=["persistent", "interrupted", "deadline", "distributed"])
def test_one_status_rule(run, status, shown, resumable, tmp_path, monkeypatch,
                         capsys):
    rundir = tmp_path / "run"
    run(rundir, monkeypatch)
    got, refusal = run_status(RunStore(rundir, create=False).events())
    assert got == status == RunStore(rundir, create=False).status()
    assert (refusal is None) == resumable
    journal = [ln for ln in render_report(load_rundir(rundir)).splitlines()
               if ln.startswith("journal ")]
    assert len(journal) == 1 and journal[0].endswith(shown)
    monkeypatch.undo()
    capsys.readouterr()
    if not resumable:  # repro resume agrees, in one line, and journals nothing
        before = (rundir / "journal.jsonl").read_bytes()
        assert main(["resume", str(rundir)]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert line == f"error: {rundir} {refusal}"
        assert (rundir / "journal.jsonl").read_bytes() == before


# -- tallies count every record, held or dropped ----------------------------


def test_tallies_survive_the_ring_overflowing():
    model = tiny_model()
    engine = RecoveryEngine(model, 2 * model.config.dt)
    engine.run()
    assert engine.completed
    events = engine.events
    events.emit(ServiceEvent(model.time, "drop_level", detail="dropped",
                             fields={"step": 2}))
    for _ in range(events.capacity):
        events.emit(ServiceEvent(model.time, "rollback", detail="rolled",
                                 fields={"step": 2}))
    assert events.dropped == 1 and events.of("degradation") == []
    assert not engine.completed

    class Tally:
        drops = counted("drop_level")
        rollbacks = counted("rollback")

    tally = Tally()
    tally.events = events
    assert tally.drops == 1
    assert tally.rollbacks == events.capacity


def test_run_events_count_weighs_a_dropped_rank_failure():
    events = RunEvents()
    events.emit(ServiceEvent(0.0, "rank_failure", fields={
        "ranks": [1, 2], "at_step": 3, "incarnation": 0, "n_ranks": 4,
    }))
    for _ in range(events.capacity):
        events.emit(ServiceEvent(0.0, "hedge_migrate", fields={"step": 3}))
    assert events.of("rank_failure") == []
    assert events.count("rank_failure") == 1
    assert events.weight("rank_failure") == 2
    assert events.count("hedge_migrate") == events.capacity
