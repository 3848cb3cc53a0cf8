"""Recovery engine: the one single-process loop that guards a run.

:class:`RecoveryEngine` is the only loop that checkpoints.  Every guarded
single-process run goes through it: the one guarded driver,
:func:`~repro.resilience.forecast.run_resilient_forecast` (``repro
forecast`` with a guard flag or ``--rundir``, ``repro resume``, the
service), and the survivable runtime's single-process breaker.  A bare
run without any of that is :meth:`RTiModel.run` — step, then monitor.
Around every model step the engine:

* prices the step on the simulated clock and lets the deadline
  supervisor order graceful degradations (drop the finest nest level,
  coarsen the output cadence, finish early);
* snapshots into the checkpoint ring before step *k* when
  ``k % checkpoint_every == 0`` (the absolute step count, so a resumed
  run keeps its alignment) and at once after a level drop emptied the
  ring, refusing to archive corrupted state; a ring with a store spills
  every snapshot to disk;
* with a store, captures SIGTERM/SIGINT: one final disk snapshot, an
  ``interrupted`` journal event, then :class:`KeyboardInterrupt`;
* injects the fault plan's scheduled NaN corruptions (chaos testing);
* runs the monitors and, on :class:`~repro.errors.NumericalError`,
  rolls back to the last good checkpoint — halving the time step when
  the same checkpoint keeps blowing up (the classic stiff-case
  response, down to a floor of an eighth of the initial dt), and giving
  up into an explicitly degraded partial forecast after
  :data:`MAX_ROLLBACKS`.

Distributed runs recover in flight instead:
:func:`repro.resilience.survive.survivable_run_distributed`.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.core.model import CompositeMonitor, RTiModel
from repro.errors import IntegrityError, NumericalError
from repro.grid.hierarchy import NestedGrid
from repro.obs.log import RunEvents, ServiceEvent, traced_gauge
from repro.resilience.checkpoint import CheckpointRing, capture_model
from repro.resilience.deadline import (
    DEGRADATION_ORDER,
    MARGIN,
    DeadlineSupervisor,
)
from repro.resilience.faultplan import FaultPlan
from repro.resilience.inject import (
    corrupt_checkpoint,
    corrupt_state,
    corrupt_state_bitflip,
)

#: Rollback budget before the engine gives up into a partial, explicitly
#: degraded forecast.
MAX_ROLLBACKS = 6


def drop_finest_level(model: RTiModel) -> RTiModel:
    """Rebuild *model* without its finest nest level, carrying all state.

    The surviving blocks' prognostic buffers, buffer flip, clock, output
    cadence and forecast-product accumulators are copied bitwise, so the
    degraded model continues the same run — only the dropped level's
    resolution (and its child->parent feedback) is lost.
    """
    grid = model.grid
    if grid.n_levels <= 1:
        raise NumericalError("cannot drop the only grid level")
    degraded = RTiModel(
        NestedGrid(levels=grid.levels[:-1], ratio=grid.ratio),
        model.bathymetry,
        model.config,
    )
    capture_model(model, products=None).restore(degraded)
    return degraded


class RecoveryEngine:
    """Resilient integration loop around one :class:`RTiModel`.

    Parameters
    ----------
    model:
        The forecast model (replaced in place when a level is dropped;
        read the final model from ``engine.model``).
    horizon_s:
        Simulated physical time to integrate to.
    monitor, ring, supervisor, clock, fault_plan:
        Collaborators; all optional except the ring (created on demand).
        *monitor* may be a list of monitors (one
        :class:`~repro.core.model.CompositeMonitor`).  A ring with a
        store makes the run durable: every snapshot spills to disk and
        the loop captures SIGTERM/SIGINT.
    checkpoint_every:
        Snapshot cadence [steps], on the absolute step count.
    min_levels:
        Degradation floor for ``drop_level``.
    max_output_every:
        Degradation ceiling for ``coarsen_output``.
    sink:
        The run's :class:`~repro.obs.log.RunEvents` (a private one by
        default): every recovery and degradation action is one record
        emitted into it as it happens — write-ahead.
    tracker:
        Optional :class:`repro.resilience.integrity.IntegrityTracker`
        collecting corruption detections/corrections — the engine marks
        an integrity-triggered rollback as the correction and an abort
        with no verifiable checkpoint as *uncorrected*.
    scrubber:
        Optional :class:`repro.resilience.integrity.CheckpointScrubber`
        run every *scrub_every* steps (0 disables the cadence).
    """

    def __init__(
        self,
        model: RTiModel,
        horizon_s: float,
        *,
        monitor=None,
        ring: CheckpointRing | None = None,
        supervisor: DeadlineSupervisor | None = None,
        clock=None,
        fault_plan: FaultPlan | None = None,
        checkpoint_every: int = 20,
        min_levels: int = 1,
        max_output_every: int = 8,
        sink: RunEvents | None = None,
        tracker=None,
        scrubber=None,
        scrub_every: int = 0,
    ) -> None:
        if horizon_s <= 0:
            raise NumericalError("horizon must be positive")
        if checkpoint_every < 1:
            raise NumericalError("checkpoint cadence must be >= 1")
        self.model = model
        self.horizon_s = float(horizon_s)
        if isinstance(monitor, (list, tuple)):
            monitor = CompositeMonitor(monitor)
        self.monitor = monitor
        self.ring = ring if ring is not None else CheckpointRing()
        self.supervisor = supervisor
        self.clock = clock
        self.fault_plan = fault_plan
        self.checkpoint_every = checkpoint_every
        #: Floor for timestep halving.
        self._dt_floor = model.config.dt / 8.0
        self.min_levels = min_levels
        self.max_output_every = max_output_every

        self.events = sink if sink is not None else RunEvents()
        #: Why the engine gave up (its ``recovery_abort`` detail), or None.
        self.aborted: str | None = None
        self.tracker = tracker
        self.scrubber = scrubber
        self.scrub_every = scrub_every
        self._rollbacks = 0
        self._last_rollback_step: int | None = None
        #: A level drop emptied the ring: snapshot before the next step.
        self._snapshot_now = False
        self._last_scrub_step: int | None = None

    # -- helpers ---------------------------------------------------------

    def _steps_left(self) -> int:
        # Rounded: the clock is a running float sum that drifts off the
        # step grid over a long run, and a horizon of n whole steps must
        # still end at exactly step n.
        return max(
            0,
            round((self.horizon_s - self.model.time) / self.model.config.dt),
        )

    def _record(self, kind: str, detail: str) -> None:
        self.events.emit(ServiceEvent(self.model.time, kind, detail=detail,
                                      fields={"step": self.model.step_count}))

    def _verified_checkpoint(self):
        """Newest ring entry whose digests still verify.

        Entries that fail re-verification are evicted (the quarantine:
        a corrupt rollback target is worse than a shorter rollback), the
        detection landing in the tracker.  Entries without digests pass
        unchecked, as before the integrity layer existed.
        """
        while True:
            ckpt = self.ring.latest
            if ckpt is None:
                return None
            blocks = ckpt.bad_blocks()
            if not blocks:
                return ckpt
            if self.tracker is not None:
                self.tracker.detection(
                    "checkpoint",
                    step=ckpt.step,
                    detail=(
                        f"rollback target @ step {ckpt.step} failed digest "
                        f"verification (blocks {blocks})"
                    ),
                    blocks=blocks,
                )
            self._record(
                "ckpt_evicted",
                f"checkpoint @ step {ckpt.step} failed digest "
                f"verification (blocks {blocks}) — evicted, trying an "
                f"older one",
            )
            self.ring.drop_latest()

    def _abort(self, detail: str, exc=None, why: str = "") -> None:
        """Give up into a degraded forecast; a corruption *exc* that
        caused it (for reason *why*) is uncorrected."""
        self._record("recovery_abort", detail)
        if isinstance(exc, IntegrityError) and self.tracker is not None:
            self.tracker.uncorrectable(
                exc.surface or "state", step=exc.step, detail=f"{why}: {exc}"
            )
        self.aborted = detail

    def _rollback(self, exc: NumericalError) -> None:
        self._rollbacks += 1
        quarantine = isinstance(exc, IntegrityError)
        if self._rollbacks > MAX_ROLLBACKS:
            self._abort(
                f"rollback budget ({MAX_ROLLBACKS}) exhausted: {exc}",
                exc, "rollback budget exhausted",
            )
            return
        ckpt = self._verified_checkpoint()
        if ckpt is None:
            self._abort(f"no checkpoint to restore: {exc}",
                        exc, "no clean checkpoint survives")
            return
        repeat = ckpt.step == self._last_rollback_step
        self.ring.restore(self.model, ckpt)
        if quarantine:
            blast = f" (quarantined blocks {exc.blocks})" if exc.blocks else ""
            self._record(
                "quarantine_rollback",
                f"corruption on surface {exc.surface or 'state'}{blast}: "
                f"restored verified checkpoint @ step {ckpt.step} "
                f"after: {exc}",
            )
            if self.tracker is not None:
                self.tracker.corrected(
                    "rollback",
                    exc.surface or "state",
                    step=exc.step,
                    detail=(
                        f"rolled back to verified checkpoint @ step "
                        f"{ckpt.step}"
                    ),
                )
        else:
            self._record(
                "rollback",
                f"restored checkpoint @ step {ckpt.step} after: {exc}",
            )
        # Corruption is transient (the plan consumes each flip once), so
        # a repeated quarantine rollback does not mean the *physics* is
        # stiff — dt halving is reserved for genuine numerical blow-ups.
        if repeat and not quarantine:
            new_dt = self.model.config.dt / 2.0
            if new_dt < self._dt_floor:
                self._abort(
                    f"dt floor {self._dt_floor:g}s reached while still "
                    f"unstable: {exc}"
                )
                return
            self.model.config = replace(self.model.config, dt=new_dt)
            self._record("dt_halved", f"dt -> {new_dt:g}s")
        self._last_rollback_step = ckpt.step
        if self.monitor is not None and hasattr(self.monitor, "reset_baseline"):
            self.monitor.reset_baseline()

    def _degrade(self, step_cost_s: float) -> bool:
        """Apply one degradation; returns False on ``finish_early``."""
        sup = self.supervisor
        model = self.model
        projected = sup.projected_finish_s(
            self.clock.elapsed_s, self._steps_left(), step_cost_s
        )
        action = sup.next_action(
            can_drop_level=model.grid.n_levels > self.min_levels,
            can_coarsen=model.output_every < self.max_output_every,
        )
        if action == "drop_level":
            dropped = model.grid.levels[-1]
            self.model = drop_finest_level(model)
            self.ring.clear()
            self._snapshot_now = True
            if self.monitor is not None and hasattr(
                self.monitor, "reset_baseline"
            ):
                self.monitor.reset_baseline()
            detail = (
                f"dropped level {dropped.index} "
                f"({dropped.n_cells:,} cells, dx={dropped.dx:g} m)"
            )
        elif action == "coarsen_output":
            model.output_every = min(
                self.max_output_every, max(2, model.output_every * 4)
            )
            detail = f"output cadence -> every {model.output_every} steps"
        else:
            # Shorten the horizon to what the remaining budget affords
            # rather than stopping dead: a 70%-horizon forecast beats
            # none at all.
            budget_s = sup.deadline_s * MARGIN - self.clock.elapsed_s
            affordable = (
                int(budget_s / step_cost_s) if step_cost_s > 0 else 0
            )
            new_horizon = min(
                self.horizon_s,
                model.time + max(0, affordable) * model.config.dt,
            )
            detail = (
                f"horizon shortened to t={new_horizon:.1f}s of "
                f"{self.horizon_s:.1f}s"
            )
            self.horizon_s = new_horizon
        self.events.emit(ServiceEvent(
            self.model.time, action, detail=detail, fields={
                "step": self.model.step_count,
                "projected_s": round(projected, 3),
                "deadline_s": sup.deadline_s,
            },
        ))
        traced_gauge("repro_eta_projected_seconds",
                     "projected forecast finish at the last deadline decision",
                     projected)
        traced_gauge("repro_eta_deadline_seconds",
                     "operational deadline the supervisor projects against",
                     sup.deadline_s)
        return not (action == "finish_early" and self.horizon_s <= model.time)

    def _inject_state_faults(self) -> None:
        if self.fault_plan is None:
            return
        for spec in self.fault_plan.state_faults_at(self.model.step_count):
            corrupt_state(self.model.states, spec)

    def _inject_bitflips(self) -> None:
        """Fire scheduled bit flips *before* the step runs.

        State flips land in the published (read) buffers — data the
        integrity monitor checksummed at the previous ``after_step`` —
        so the next verification pass catches the mutation while a clean
        rollback target still exists.  Checkpoint flips land in the
        newest ring entry, after any same-step snapshot, so the archived
        copy (not live state) is what the scrubber must catch.
        """
        if self.fault_plan is None:
            return
        step = self.model.step_count
        for spec in self.fault_plan.bitflips_at(step, "state"):
            corrupt_state_bitflip(self.model.states, spec)
        for spec in self.fault_plan.bitflips_at(step, "checkpoint"):
            corrupt_checkpoint(self.ring.latest, spec)

    def _maybe_scrub(self, step: int) -> None:
        if (
            self.scrubber is None
            or not self.scrub_every
            or step == 0
            or step % self.scrub_every != 0
            or step == self._last_scrub_step
        ):
            return
        self._last_scrub_step = step
        stats = self.scrubber.scrub()
        if stats["evicted"] or stats["repaired"] or stats["disk_quarantined"]:
            self._record(
                "scrub",
                f"checkpoint scrub: {stats['checked']} checked, "
                f"{stats['repaired']} repaired, {stats['evicted']} "
                f"evicted, {stats['disk_quarantined']} disk snapshot(s) "
                f"quarantined",
            )
        # Evicting the ring's last entry leaves nothing to roll back to
        # until the next cadence: take one of the current state, which no
        # flip has reached yet (they land after this point of the step).
        self._snapshot_now = self.ring.latest is None

    # -- the loop --------------------------------------------------------

    def run(self) -> RTiModel:
        """Integrate to the horizon (or a degraded stop); returns the model.

        With a ring that spills to a store, SIGTERM/SIGINT capture one
        final disk snapshot of the current model, journal
        ``interrupted`` and unwind with :class:`KeyboardInterrupt`
        (:func:`repro.persist.signals.interrupt_guard`), so the run
        stays resumable.

        Guaranteed to terminate: the iteration count is hard-capped well
        above any legitimate run length, and hitting the cap aborts into
        a degraded forecast rather than hanging.
        """
        store = self.ring.store
        if store is None:
            return self._loop()
        from repro.persist.signals import interrupt_guard

        with interrupt_guard(
            snapshot_fn=lambda: store.save_snapshot(self.model),
            journal_fn=lambda sig, ok: store.record_event(
                "interrupted",
                signal=sig,
                step=self.model.step_count,
                time=self.model.time,
                snapshotted=ok,
            ),
        ):
            return self._loop()

    def _snapshot_due(self, step: int) -> bool:
        if self._snapshot_now:
            return True
        latest = self.ring.latest
        # Not again at a step the ring already holds (after a rollback).
        return step % self.checkpoint_every == 0 and (
            latest is None or latest.step != step
        )

    def _loop(self) -> RTiModel:
        model = self.model
        max_iters = 20 * math.ceil(self.horizon_s / self._dt_floor) + 1000
        iters = 0
        while self._steps_left() > 0 and not self.aborted:
            model = self.model
            iters += 1
            if iters > max_iters:
                self._abort(
                    f"iteration cap {max_iters} hit — stopping degraded"
                )
                break
            step = model.step_count
            slowdown = (
                self.fault_plan.straggler_factor(step)
                if self.fault_plan is not None
                else 1.0
            )
            if self.supervisor is not None and self.clock is not None:
                cost_s = 1e-6 * self.clock.step_cost_us(
                    model, slowdown=slowdown
                )
                if self.supervisor.overrun(
                    self.clock.elapsed_s, self._steps_left(), cost_s
                ):
                    if not self._degrade(cost_s):
                        break  # finish_early
                    continue  # re-project with the degraded model
            if self._snapshot_due(step):
                try:
                    self.ring.snapshot(model)
                    self._snapshot_now = False
                except NumericalError as exc:
                    self._rollback(exc)
                    continue
            self._maybe_scrub(step)
            if self.aborted:
                break
            if self._snapshot_now:
                continue  # the scrub emptied the ring: refill it first
            self._inject_bitflips()
            try:
                model.step()
                self._inject_state_faults()
                if self.monitor is not None:
                    self.monitor.after_step(model)
            except NumericalError as exc:
                self._rollback(exc)
                continue
            if self.clock is not None:
                self.clock.charge_step(model, slowdown=slowdown)
        return self.model

    @property
    def completed(self) -> bool:
        """Did the run reach the full horizon at full fidelity?"""
        return (
            not self.aborted
            and self._steps_left() == 0
            and not self.events.count(*DEGRADATION_ORDER)
        )
