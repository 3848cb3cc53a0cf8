"""One run ledger: every journal line of a guarded run is a run record.

Every decision of a guarded run — a rollback, a level drop, a corrected
bit flip, a lost rank, a hedge — and every lifecycle line — its start, a
resume, an interruption, its completion — is one
:class:`repro.obs.log.ServiceEvent` emitted once through
:meth:`repro.obs.log.RunEvents.emit`, into the one ``RunEvents`` of the run
directory.  These tests hold the parity that follows: every journal line
but the snapshot pair is one record of the ring, in the same order, with
the same kind, fields and stamp; each report and guard tally and each
``_total`` counter is a count over the records; and the counters move
whether or not the run is traced (the metering rule).  A signal that lands
inside ``emit`` unwinds the run and journals ``interrupted``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import repro.obs as obs
from repro import resilience
from repro.obs.inspect import load_rundir, render_report
from repro.obs.log import RUN_KINDS, RunEvents, ServiceEvent
from repro.obs.metrics import get_registry
from repro.persist import RunStore, resume_run, start_run
from repro.persist.products import ProductStreamer
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    SurvivalConfig,
    run_resilient_forecast,
    survivable_run_distributed,
)
from repro.validation import FlatBathymetry
from tests.test_chaos_matrix import config as chaos_config
from tests.test_chaos_matrix import nested_grid
from tests.test_chaos_matrix import source as chaos_source
from tests.test_resume import SPEC
from tests.test_survive import (
    assert_identical,
    config,
    flat_grid,
    reference_run,
    source,
    whole_block_decomp,
)

N_STEPS = 30
REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: The snapshot pair: journal lines written beside the ring, not records.
SNAPSHOT_PAIR = ("checkpoint_begin", "checkpoint")


def counters() -> dict[tuple, float]:
    """Every ``_total`` counter a run record can move, by (name, labels)."""
    names = {spec.counter for spec in RUN_KINDS.values() if spec.counter}
    return {
        key: c.value for key, c in get_registry().counters().items()
        if key[0] in names
    }


def expected_counters(events) -> dict[tuple, float]:
    """The same counters, counted over the ring."""
    out: dict[tuple, float] = {}
    for ev in events:
        spec = RUN_KINDS[ev.kind]
        if spec.counter is None:
            continue
        _event, line = ev.journal_line()
        labels = ((spec.label, line[spec.label]),) if spec.label else ()
        key = (spec.counter, labels)
        out[key] = out.get(key, 0) + (
            len(line[spec.weight]) if spec.weight else 1
        )
    return out


def assert_counted(before, events):
    after = counters()
    moved = {
        k: v - before.get(k, 0) for k, v in after.items()
        if v != before.get(k, 0)
    }
    assert moved == expected_counters(events)


def assert_journal_parity(events, store):
    """Every journal line but the snapshot pair is one record: the same
    order, kind, fields and stamp."""
    lines = [ln for ln in store.events() if ln["event"] not in SNAPSHOT_PAIR]
    assert len(lines) == len(events)
    for ev, ln in zip(events, lines):
        spec = RUN_KINDS[ev.kind]
        assert ln["event"] == spec.event
        if spec.key is not None:
            assert ln[spec.key] == ev.kind
        body = {
            k: v for k, v in ln.items()
            if k not in ("seq", "ts_wall", "ts_mono_us", "event", spec.key)
        }
        assert body.pop("detail", "") == ev.detail
        assert body == json.loads(json.dumps(ev.fields, default=str))
        assert ln["ts_mono_us"] == round(ev.stamp[1], 1)
    return lines


def assert_tallies_count_records(report, lines):
    """The guards' tallies are counts over the run's journaled records."""
    integrity = [ln for ln in lines if ln["event"] == "integrity"]
    kinds = Counter(ln["kind"] for ln in integrity)
    doc = report.integrity
    assert doc["detections"] == {"state": 0, "checkpoint": 0, **Counter(
        ln["surface"] for ln in integrity if ln["kind"] == "detection"
    )}
    assert doc["corrections"] == Counter(
        ln["action"] for ln in integrity if ln["kind"] == "corrected"
    )
    assert doc["uncorrected"] == kinds["uncorrected"]
    assert doc["scrub_repairs"] == doc["corrections"].get("scrub_repair", 0)
    assert report.physics["aborts"] == sum(
        ln["event"] == "physics" and ln["verdict"] == "diverged"
        for ln in lines
    )


@pytest.fixture(autouse=True)
def _untraced():
    """The metering rule is about untraced runs: keep the tracer off."""
    obs.disable()
    yield
    obs.disable()


def test_single_process_records_are_journaled_and_counted_once(tmp_path):
    store = RunStore(tmp_path / "run")
    plan = FaultPlan([
        FaultSpec(kind="nan", step=7, block=1, field="z"),
        FaultSpec(kind="bitflip", target="state", step=13, block=0,
                  field="z", bit=2),
        FaultSpec(kind="straggler", rank=0, step=20, span=100, factor=50.0),
    ])
    before = counters()
    report = run_resilient_forecast(
        nested_grid(), FlatBathymetry(50.0), config=chaos_config(),
        source=chaos_source(), horizon_s=40.0, fault_plan=plan,
        deadline_s=0.05, store=store, integrity_every=1, checkpoint_every=5,
    )
    events = list(report.events)
    kinds = {ev.kind for ev in events}
    assert {"rollback", "quarantine_rollback", "detection", "corrected",
            "drop_level", "finish_early"} <= kinds
    assert report.events.dropped == 0

    lines = assert_journal_parity(events, store)
    assert [ln["event"] for ln in lines][-1] == "complete"
    assert_counted(before, events)
    assert_tallies_count_records(report, lines)
    assert sum(report.integrity["detections"].values()) > 0

    # The tallies are counts over the ring, and agree with the journal.
    rollbacks = [
        ln for ln in lines
        if ln["event"] == "recovery"
        and ln["kind"] in ("rollback", "quarantine_rollback")
    ]
    assert report.rollbacks == len(rollbacks) == 2
    assert store.first_event("complete")["rollbacks"] == 2
    # repro inspect counts them by the report's rule.
    assert "rollbacks       : 2" in render_report(load_rundir(store.rundir))
    assert [ev.kind for ev in report.degradations] == [
        ln["action"] for ln in lines if ln["event"] == "degradation"
    ]
    assert [ev.kind for ev in report.recoveries] == [
        ln["kind"] for ln in lines if ln["event"] == "recovery"
    ]
    assert report.integrity["events"] == [
        {k: v for k, v in ln.items()
         if k not in ("seq", "ts_wall", "ts_mono_us", "event")}
        for ln in lines if ln["event"] == "integrity"
    ]


def test_survivable_records_are_journaled_and_counted_once(tmp_path):
    grid, bathy, cfg = flat_grid(3), FlatBathymetry(50.0), config()
    src = source()
    ref = reference_run(grid, bathy, cfg, src, N_STEPS)
    plan = FaultPlan(
        [
            # Rank 2 stalls 30 ms on every send: an unambiguous straggler.
            FaultSpec(kind="straggler", rank=2, op=0, step=0, span=100,
                      factor=4.0, delay_s=0.03),
            FaultSpec(kind="rank_crash", rank=1, step=17),
        ],
        seed=5,
    )
    store = RunStore(tmp_path / "run")
    before = counters()
    eta, report = survivable_run_distributed(
        grid, bathy, cfg, whole_block_decomp(grid, 3), src, N_STEPS,
        survival=SurvivalConfig(checkpoint_every=10, spare_ranks=1,
                                hedge_stragglers=True),
        fault_plan=plan, store=store, timeout=200.0, comm_timeout=20.0,
    )
    assert_identical(ref, eta)
    events = list(report.events)
    kinds = [ev.kind for ev in events]
    assert "rank_failure" in kinds and "respawn" in kinds
    assert "hedge_migrate" in kinds

    lines = assert_journal_parity(events, store)
    assert lines[0]["event"] == "distributed_start"
    assert lines[-1]["event"] == "distributed_complete"
    assert_counted(before, events)

    failures = [ln for ln in lines if ln["event"] == "rank_failure"]
    epochs = [ln for ln in lines if ln["event"] == "recovery_epoch"]
    assert report.rank_failures == sum(len(ln["ranks"]) for ln in failures)
    assert report.rank_failures == 1
    assert report.respawns == sum(ln["action"] == "respawn" for ln in epochs)
    assert report.spares_used == sum(
        len(ln["dead"]) for ln in epochs if ln["action"] == "respawn"
    )
    assert report.shrinks == report.epoch_retries == 0
    assert report.scratch_restarts == 0
    assert not report.breaker_tripped
    for tally, event in (("hedge_attempts", "hedge_migrate"),
                         ("hedge_wins", "hedge_commit"),
                         ("hedge_losses", "hedge_rollback")):
        assert getattr(report, tally) == sum(
            ln["event"] == event for ln in lines
        )
    complete = store.first_event("distributed_complete")
    assert complete["rank_failures"] == report.rank_failures
    assert complete["summary"] == report.summary()


def test_an_interrupted_and_resumed_run_journals_only_records(
    tmp_path, monkeypatch
):
    """start_run, SIGTERM at step 17, resume_run: each leg's lines are the
    records of that leg's one RunEvents, the snapshot pair aside."""
    legs: list[tuple] = []
    drive = resilience.run_resilient_forecast

    def spy(*args, store, **kwargs):
        legs.append(store.run_events)
        report = drive(*args, store=store, **kwargs)
        legs[-1] = (store.run_events, report)
        return report

    after_step = ProductStreamer.after_step

    def kill_at_17(self, model):
        after_step(self, model)
        if model.step_count == 17 and len(legs) == 1:
            os.kill(os.getpid(), signal.SIGTERM)

    monkeypatch.setattr(resilience, "run_resilient_forecast", spy)
    monkeypatch.setattr(ProductStreamer, "after_step", kill_at_17)
    plan = FaultPlan([
        FaultSpec(kind="nan", step=7, block=1, field="z"),
        FaultSpec(kind="bitflip", target="state", step=22, block=0,
                  field="z", bit=2),
    ])
    rundir = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        start_run(rundir, SPEC, checkpoint_every=5, fault_plan=plan,
                  integrity_every=1, echo=lambda _line: None)
    resume_run(rundir, echo=lambda _line: None)

    first, (second, report) = legs
    events = [*first, *second]
    lines = assert_journal_parity(events, RunStore(rundir, create=False))
    assert [ln["event"] for ln in lines if ln["event"] in (
        "run_start", "interrupted", "resume", "complete",
    )] == ["run_start", "interrupted", "resume", "complete"]
    assert [ev.kind for ev in first][-1] == "interrupted"
    assert {"rollback", "detection", "quarantine_rollback"} <= {
        ev.kind for ev in events
    }
    # A leg's tallies count that leg's records: the report is the second's.
    assert_tallies_count_records(report, lines[len(first):])


#: Runs in a fresh interpreter, so that a deadlock is a timeout, not a hung
#: test run: the chaos nest with a NaN at step 7, whose journal signals SIGTERM
#: to its own process once, on the first rollback line — inside
#: ``RunEvents.emit``, which holds the run's lock while it journals.
SIGNAL_INSIDE_EMIT = """
import os, signal, sys
from repro.persist import RunJournal, RunStore
from repro.resilience import FaultPlan, FaultSpec, run_resilient_forecast
from repro.validation import FlatBathymetry
from tests.test_chaos_matrix import config, nested_grid, source

record, sent = RunJournal.record, []

def signalling_record(self, rec):
    line = record(self, rec)
    if rec.kind == "rollback" and not sent:
        sent.append(rec)
        os.kill(os.getpid(), signal.SIGTERM)
    return line

RunJournal.record = signalling_record
try:
    run_resilient_forecast(
        nested_grid(), FlatBathymetry(50.0), config=config(), source=source(),
        horizon_s=40.0, store=RunStore(sys.argv[1]), checkpoint_every=5,
        fault_plan=FaultPlan([FaultSpec(kind="nan", step=7, block=1, field="z")]),
    )
except KeyboardInterrupt:
    sys.exit(130 if sent else 1)
"""


def test_a_signal_inside_emit_unwinds_and_journals_interrupted(tmp_path):
    """SIGTERM lands while the main thread holds RunEvents' lock: the run
    still ends in KeyboardInterrupt with ``interrupted`` journaled and a
    valid final snapshot — nothing is written from inside the handler."""
    rundir = tmp_path / "run"
    done = subprocess.run(
        [sys.executable, "-c", SIGNAL_INSIDE_EMIT, str(rundir)],
        env={**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{REPO}"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 130, done.stderr
    store = RunStore(rundir, create=False)
    lines = store.events()
    assert [ln["event"] for ln in lines[-3:]] == [
        "checkpoint_begin", "checkpoint", "interrupted",
    ]
    interrupted = lines[-1]
    assert interrupted["signal"] == "SIGTERM" and interrupted["snapshotted"]
    assert [ln.get("kind") for ln in lines].count("rollback") == 1
    snap = store.latest_valid_snapshot()
    assert snap is not None and snap.step == interrupted["step"]


def test_emit_refuses_a_kind_it_cannot_meter():
    with pytest.raises(KeyError):
        RunEvents().emit(ServiceEvent(None, "not_a_run_kind"))


def test_rank_threads_emit_into_one_run_without_losing_a_record(tmp_path):
    """More emitters than cores, a short switch interval: the ring, the
    journal and the counter see every record, in one order."""
    store = RunStore(tmp_path / "run")
    events = RunEvents(store)
    counter = get_registry().counter(
        "repro_recovery_rank_failures_total"
    )
    before = counter.value
    n_threads, each = 2 * (os.cpu_count() or 1) + 2, 25

    def rank(r):
        for k in range(each):
            events.emit(ServiceEvent(None, "rank_failure", fields={
                "ranks": [r], "at_step": k, "incarnation": 0,
                "n_ranks": n_threads,
            }))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=rank, args=(r,))
                   for r in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    total = n_threads * each
    lines = store.events()
    assert len(events) == len(lines) == total
    assert [ln["seq"] for ln in lines] == list(range(1, total + 1))
    assert [(ln["ranks"], ln["at_step"]) for ln in lines] == [
        (ev.fields["ranks"], ev.fields["at_step"]) for ev in events
    ]
    assert counter.value - before == total
