"""One run event: a guarded run's decisions are records of one ring.

Every decision of a guarded run — a rollback, a level drop, a corrected
bit flip, a lost rank, a hedge — is one :class:`repro.obs.log.ServiceEvent`
emitted once through :meth:`repro.obs.log.RunEvents.emit`.  These tests
hold the parity that follows: each record in the ring has exactly one
journal line, in the same order, with the same kind and fields; each
report tally and each ``_total`` counter is a count over the ring; and
the counters move whether or not the run is traced (the metering rule).
"""

import os
import sys
import threading

import pytest

import repro.obs as obs
from repro.obs.log import RUN_KINDS, RunEvents, ServiceEvent
from repro.obs.metrics import get_registry
from repro.persist import RunStore
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
from tests.test_survive import (
    assert_identical,
    config,
    flat_grid,
    reference_run,
    source,
    whole_block_decomp,
)

N_STEPS = 30

#: Journal events that are decisions (the rest are a run's lifecycle).
DECISIONS = {spec.event for spec in RUN_KINDS.values()}


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
    """Exactly one journal line per record, same order, kind, fields."""
    lines = [ln for ln in store.events() if ln["event"] in DECISIONS]
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
        assert body == ev.fields
        assert ln["ts_mono_us"] == round(ev.stamp[1], 1)
    return lines


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
    assert_counted(before, events)

    # The tallies are counts over the ring, and agree with the journal.
    rollbacks = [
        ln for ln in lines
        if ln["event"] == "recovery"
        and ln["kind"] in ("rollback", "quarantine_rollback")
    ]
    assert report.rollbacks == len(rollbacks) == 2
    assert store.first_event("complete")["rollbacks"] == 2
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
