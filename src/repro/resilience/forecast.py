"""The resilient-forecast orchestrator.

:func:`run_resilient_forecast` assembles the whole resilience stack —
health monitor, checkpoint ring, simulated clock, deadline supervisor,
recovery engine, fault plan — around one :class:`~repro.core.RTiModel`
run and returns a :class:`~repro.resilience.report.ForecastReport`.
This is the entry point behind ``python -m repro forecast --deadline
--faults`` and the unit the chaos-matrix test sweeps: whatever the
fault plan does, the call returns a report (complete or explicitly
degraded) — it never hangs and never lets corruption through silently.
"""

from __future__ import annotations

from repro import guards
from repro.core.config import SimulationConfig
from repro.core.model import RTiModel
from repro.obs.log import get_logger
from repro.obs.physics import (
    DivergenceSentinel,
    PhysicsSampler,
    physics_doc,
)
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
    platform="squid-gpu",
    checkpoint_every: int = 20,
    min_levels: int = 1,
    max_output_every: int = 8,
    max_rollbacks: int = 6,
    store=None,
    physics_every: int = 5,
    integrity_every: int = 0,
    scrub_every: int = 0,
) -> ForecastReport:
    """Run a forecast that always produces a (possibly degraded) report.

    Parameters mirror the collaborators they configure; see
    :class:`~repro.resilience.recovery.RecoveryEngine`.  The monitors
    and the checkpoint ring run with their own defaults.  The returned
    report carries the final model as ``report.model`` for product
    post-processing (damage assessment, gauges).

    *store* (a :class:`repro.persist.RunStore`) makes the run durable:
    the checkpoint ring spills every snapshot to disk, every
    recovery/degradation action is journaled write-ahead, and
    SIGTERM/SIGINT capture a final snapshot and journal ``interrupted``
    before unwinding with :class:`KeyboardInterrupt`.

    *physics_every* arms the in-situ physics sampler + divergence
    sentinel (:mod:`repro.obs.physics`) on that step cadence (0 turns
    it off).  The sentinel composes with the health monitor via
    :class:`~repro.core.CompositeMonitor`; a ``diverged`` verdict
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

    if store is not None:
        store.record_event(
            "forecast_start",
            horizon_s=horizon_s,
            deadline_s=deadline_s,
            platform=str(platform),
            config=config.to_dict(),
        )
    health = HealthMonitor()

    def journal(guard: str):
        """Each guard's events go to the run journal under its name."""
        if store is None:
            return None
        return lambda ev: store.record_event(guard, **ev)

    sentinel = tracker = None
    monitors = [health]
    if physics_every:
        sentinel = DivergenceSentinel(
            PhysicsSampler(every=physics_every), on_event=journal("physics")
        )
        monitors.append(sentinel)
    if integrity_every:
        tracker = IntegrityTracker(on_event=journal("integrity"))
        monitors.append(
            IntegrityMonitor(every=integrity_every, tracker=tracker)
        )
    ring = CheckpointRing(store=store, checksums=integrity_every > 0)
    scrubber = (
        CheckpointScrubber(ring, store=store, tracker=tracker)
        if tracker is not None
        else None
    )
    clock = SimulatedClock(platform=platform)
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
        max_rollbacks=max_rollbacks,
        min_levels=min_levels,
        max_output_every=max_output_every,
        journal=store.record_event if store is not None else None,
        tracker=tracker,
        scrubber=scrubber,
        scrub_every=scrub_every,
    )
    with span(
        "forecast", cat="step",
        horizon_s=horizon_s, platform=str(platform),
    ):
        final = engine.run()

    if scrubber is not None:
        # Final scrub: a checkpoint-surface flip that no rollback or
        # cadence pass ever touched must still be adjudicated before the
        # verdict is folded — detected-and-contained, never silent.
        scrubber.scrub()
    if tracker is not None:
        tracker.export_verdict()

    rollbacks = sum(
        1
        for ev in engine.recoveries
        if ev.kind in ("rollback", "quarantine_rollback")
    )
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
        degradations=list(engine.degradations),
        recoveries=list(engine.recoveries),
        faults_triggered=(
            fault_plan.triggered_labels() if fault_plan is not None else []
        ),
        checkpoints_taken=ring.taken,
        rollbacks=rollbacks,
        physics_verdict=sentinel.worst if sentinel is not None else None,
        # The full physics.json-shaped document (samples included), so
        # callers can merge counter tracks into their trace export.
        physics=physics_doc(sentinel=sentinel) if sentinel is not None else None,
        integrity_verdict=tracker.verdict if tracker is not None else None,
        integrity=integrity_doc(tracker) if tracker is not None else None,
    )
    report.model = final
    verdicts = {kind.attr: kind.of(report) for kind in guards.KINDS}
    _LOG.info(
        "forecast_complete",
        status=report.status,
        achieved_s=round(final.time, 3),
        elapsed_s=round(clock.elapsed_s, 3),
        rollbacks=rollbacks,
        **verdicts,
    )
    if store is not None:
        store.record_event(
            "forecast_complete",
            status=report.status,
            achieved_s=final.time,
            elapsed_s=clock.elapsed_s,
            checkpoints_taken=ring.taken,
            checkpoints_spilled=ring.spilled,
            rollbacks=rollbacks,
            **verdicts,
        )
        for kind in guards.KINDS:
            doc = getattr(report, kind.name, None)
            if doc is not None:
                kind.publish(store.rundir / kind.artifact, doc)
    return report
