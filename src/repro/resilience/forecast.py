"""The resilient-forecast orchestrator.

:func:`run_resilient_forecast` assembles the whole resilience stack —
health monitor, checkpoint ring, simulated clock, deadline supervisor,
recovery engine, fault plan — around one :class:`~repro.core.RTiModel`
run and returns a :class:`~repro.resilience.report.ForecastReport`.
It is the one guarded single-process driver — of ``repro forecast`` with
a guard flag or ``--rundir``, ``repro resume`` and the service — and the
unit the chaos-matrix test sweeps: whatever the fault plan does, the
call returns a report (complete or explicitly degraded) — it never hangs
and never lets corruption through silently.
"""

from __future__ import annotations

from repro import guards
from repro.core.config import SimulationConfig
from repro.core.model import RTiModel
from repro.errors import NumericalError
from repro.obs.log import RunEvents, get_logger
from repro.obs.physics import PhysicsSampler, physics_doc
from repro.obs.trace import span
from repro.resilience.checkpoint import CheckpointRing
from repro.resilience.clock import SimulatedClock
from repro.resilience.deadline import DeadlineSupervisor
from repro.resilience.faultplan import FaultPlan
from repro.resilience.health import HealthMonitor
from repro.resilience.integrity import (
    CheckpointScrubber,
    IntegrityMonitor,
    IntegrityTracker,
    integrity_doc,
)
from repro.resilience.recovery import RecoveryEngine
from repro.resilience.report import ForecastReport

_LOG = get_logger("resilience")


def run_resilient_forecast(
    grid,
    bathymetry,
    *,
    config: SimulationConfig | None = None,
    source=None,
    horizon_s: float,
    deadline_s: float | None = None,
    fault_plan: FaultPlan | None = None,
    checkpoint_every: int = 20,
    min_levels: int = 1,
    max_output_every: int = 8,
    store=None,
    integrity_every: int = 0,
    scrub_every: int = 0,
    restored=None,
) -> ForecastReport:
    """Run a forecast that always produces a (possibly degraded) report.

    Parameters mirror the collaborators they configure; see
    :class:`~repro.resilience.recovery.RecoveryEngine`.  The monitors
    and the checkpoint ring run with their own defaults.  The returned
    report carries the final model as ``report.model`` for product
    post-processing (damage assessment, gauges).

    *store* (a :class:`repro.persist.RunStore`; :mod:`repro.persist.runner`
    journals its ``run_start``) makes the run durable: the ring spills
    every snapshot to disk, every record of the run is journaled
    write-ahead, SIGTERM/SIGINT capture a final snapshot and journal
    ``interrupted`` before unwinding with :class:`KeyboardInterrupt`, a
    :class:`~repro.persist.products.ProductStreamer` (the gauge series)
    is the last monitor, and the run ends in one
    ``complete`` line — or, when the engine gave up, in
    :class:`~repro.errors.NumericalError`.  A resume starts from
    *restored*, a snapshot of *store* the ring then holds.

    The in-situ physics sampler and divergence sentinel
    (:mod:`repro.obs.physics`) always ride along, owned by the health
    monitor, which hands it the rows of the step's one scan; a
    ``diverged`` verdict
    raises into the recovery engine, so a doomed run rolls back / halves
    dt / degrades within a few samples instead of burning the deadline
    budget to the NaN wall.  The report carries ``physics_verdict``/
    ``physics``, and with *store* given a ``physics.json`` lands in the
    run directory.

    *integrity_every* arms the ABFT layer
    (:mod:`repro.resilience.integrity`) on that step cadence (0 turns it
    off): per-block state checksums verified through the leap-frog
    window, digests on every ring checkpoint, and a scrubber pass every
    *scrub_every* steps plus once at the end of the run.  A checksum
    mismatch raises into the recovery engine's quarantine-rollback; the
    report carries ``integrity_verdict``/``integrity``, and with *store*
    given an ``integrity.json`` lands in the run directory.  A cadence of 1
    catches every between-step mutation; higher cadences trade detection
    coverage for overhead.
    """
    config = config or SimulationConfig()
    model = RTiModel(grid, bathymetry, config)
    if source is not None:
        model.set_initial_condition(source)

    events = RunEvents(store)
    tracker = None
    physics = PhysicsSampler(sink=events)
    monitors = [HealthMonitor(physics)]
    if integrity_every:
        tracker = IntegrityTracker(sink=events)
        monitors.append(
            IntegrityMonitor(every=integrity_every, tracker=tracker)
        )
    ring = CheckpointRing(store=store, checksums=integrity_every > 0)
    if restored is not None:
        restored.restore(model)
        ring.hold(restored)
    if store is not None:
        from repro.persist.products import ProductStreamer

        streamer = ProductStreamer(store, model)
        streamer.sync_resume_point(model)
        monitors.append(streamer)
    scrubber = (
        CheckpointScrubber(ring, store=store, tracker=tracker)
        if tracker is not None
        else None
    )
    clock = SimulatedClock()
    supervisor = (
        DeadlineSupervisor(deadline_s) if deadline_s is not None else None
    )
    engine = RecoveryEngine(
        model,
        horizon_s,
        monitor=monitors,
        ring=ring,
        supervisor=supervisor,
        clock=clock,
        fault_plan=fault_plan,
        checkpoint_every=checkpoint_every,
        min_levels=min_levels,
        max_output_every=max_output_every,
        sink=events,
        tracker=tracker,
        scrubber=scrubber,
        scrub_every=scrub_every,
    )
    with span("forecast", cat="step", horizon_s=horizon_s):
        final = engine.run()

    if scrubber is not None:
        # Final scrub: a checkpoint-surface flip that no rollback or
        # cadence pass ever touched must still be adjudicated before the
        # verdict is folded — detected-and-contained, never silent.
        scrubber.scrub()
    if tracker is not None:
        tracker.export_verdict()

    report = ForecastReport(
        status="complete" if engine.completed else "degraded",
        horizon_s=horizon_s,
        achieved_s=final.time,
        deadline_s=deadline_s,
        elapsed_s=clock.elapsed_s,
        n_levels_initial=grid.n_levels,
        n_levels_final=final.grid.n_levels,
        output_every_final=final.output_every,
        dt_final=final.config.dt,
        max_eta=final.max_eta(),
        max_speed=final.max_speed(),
        events=events,
        faults_triggered=(
            fault_plan.triggered_labels() if fault_plan is not None else []
        ),
        checkpoints_taken=ring.taken,
        physics_verdict=physics.worst,
        # The full physics.json-shaped document (samples included), so
        # callers can merge counter tracks into their trace export.
        physics=physics_doc(physics),
        integrity_verdict=tracker.verdict if tracker is not None else None,
        integrity=integrity_doc(tracker) if tracker is not None else None,
    )
    report.model = final
    complete = dict(
        status=report.status,
        achieved_s=final.time,
        elapsed_s=clock.elapsed_s,
        checkpoints_taken=ring.taken,
        checkpoints_spilled=ring.spilled,
        rollbacks=report.rollbacks,
        **{kind.attr: kind.of(report) for kind in guards.KINDS},
        step=final.step_count,
        time=final.time,
    )
    if store is not None:
        for kind in guards.KINDS:
            doc = getattr(report, kind.name, None)
            if doc is not None:
                kind.publish(store.rundir / kind.artifact, doc)
        if engine.aborted:
            # A run that gave up is not complete: its directory stays
            # incomplete, and nothing non-finite was ever archived.
            raise NumericalError(
                f"run stopped at step {final.step_count}: {engine.aborted}"
            )
    _LOG.info("run_complete", **complete)
    if store is not None:
        store.record_event("complete", **complete)
    return report
