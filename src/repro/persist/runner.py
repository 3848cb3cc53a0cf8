"""Persistent forecast driver: start, crash, resume.

:func:`start_run` journals ``run_start`` — the scenario and every guard
setting — and :func:`resume_run` rebuilds both from it and restores the
newest *valid* snapshot (checksum-corrupt ones are skipped with a
warning); both hand the model to the one guarded driver,
:func:`~repro.resilience.forecast.run_resilient_forecast`, with the
directory's store, so a resumed run ends bitwise where an uninterrupted
one does.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import PersistError
from repro.obs.log import get_logger
from repro.persist.journal import JOURNAL_VERSION
from repro.persist.preflight import validate_scenario
from repro.persist.scenario import BuiltScenario, build_scenario
from repro.persist.snapshot import SCHEMA_VERSION, grid_fingerprint
from repro.persist.store import RunStore, run_status

DEFAULT_CHECKPOINT_EVERY = 25

_LOG = get_logger("persist")


def _drive(store: RunStore, built: BuiltScenario, start: dict, echo,
           restored=None):
    """Run *built* under the guards *start* journaled; returns the model."""
    # Looked up on the package at call time: a replacement there is run.
    from repro import resilience

    plan = start.get("fault_plan")
    report = resilience.run_resilient_forecast(
        built.grid, built.bathymetry,
        config=built.config, source=built.source,
        horizon_s=built.n_steps * built.config.dt,
        deadline_s=start.get("deadline_s"),
        fault_plan=(
            resilience.FaultPlan.from_dict(plan) if plan is not None else None
        ),
        checkpoint_every=start.get(
            "checkpoint_every", DEFAULT_CHECKPOINT_EVERY
        ),
        store=store,
        integrity_every=start.get("integrity_every", 0),
        scrub_every=start.get("scrub_every", 0),
        restored=restored,
    )
    echo(report.summary())
    return report.model


def start_run(
    rundir: Path,
    spec: dict,
    *,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    deadline_s: float | None = None,
    fault_plan=None,
    integrity_every: int = 0,
    scrub_every: int = 0,
    skip_preflight: bool = False,
    echo,
):
    """Run a scenario with full persistence in a fresh run directory.

    The scenario is preflight-validated first (raising
    :class:`~repro.errors.ValidationError` with all findings on any
    error) and journaled with every guard setting in the ``run_start``
    event, making the run resumable without any out-of-band
    information.  *echo* gets the run's report; returns the final model.
    """
    if checkpoint_every < 1:
        raise PersistError("checkpoint cadence must be >= 1 step")
    if not skip_preflight:
        validate_scenario(spec).raise_if_failed()
    built = build_scenario(spec)
    store = RunStore(rundir, create=True)
    if store.status() != "empty":
        raise PersistError(
            f"{store.rundir} already holds a run "
            f"({store.status()}); use resume_run or a fresh directory"
        )
    start = store.record_event(
        "run_start",
        journal_version=JOURNAL_VERSION,
        schema_version=SCHEMA_VERSION,
        scenario=built.spec,
        n_steps=built.n_steps,
        checkpoint_every=checkpoint_every,
        grid_fingerprint=grid_fingerprint(built.grid, built.config.dtype),
        deadline_s=deadline_s,
        fault_plan=fault_plan.to_dict() if fault_plan is not None else None,
        integrity_every=integrity_every,
        scrub_every=scrub_every,
    )
    return _drive(store, built, start, echo)


def resume_run(rundir: Path, *, echo):
    """Resume an interrupted run to a bitwise-identical final state.

    Raises :class:`~repro.errors.PersistError`, journaling nothing, if
    the directory holds no resumable run (:func:`run_status`: no
    ``run_start``, already complete, or a deadline run).
    """
    store = RunStore(rundir, create=False)
    warning = store.journal_warning()
    if warning:
        _LOG.warning("journal_torn", rundir=str(rundir), detail=warning)
        echo(f"warning: {warning}")
    _status, refusal = run_status(store.events())
    if refusal is not None:
        raise PersistError(f"{store.rundir} {refusal}")
    start = store.first_event("run_start")
    built = build_scenario(start["scenario"])
    built.n_steps = int(start.get("n_steps", built.n_steps))
    want = start.get("grid_fingerprint")
    have = grid_fingerprint(built.grid, built.config.dtype)
    if want is not None and want != have:
        raise PersistError(
            f"rebuilt grid fingerprint {have[:12]}… does not match the "
            f"journaled run ({str(want)[:12]}…) — code or scenario drifted"
        )

    def _warn(msg: str) -> None:
        _LOG.warning("snapshot_skipped", rundir=str(rundir), detail=msg)
        echo(f"warning: {msg}")

    # A snapshot taken on another grid or dtype is skipped like a corrupt one.
    snap = store.latest_valid_snapshot(warn=_warn, grid_fingerprint=have)
    step, time = (snap.step, snap.time) if snap is not None else (0, 0.0)
    if snap is not None:
        _LOG.info("snapshot_restored", step=step, sim_time_s=round(time, 3))
        echo(f"restored snapshot of step {step} (t={time:.1f} s)")
    else:
        _LOG.warning("no_valid_snapshot", rundir=str(rundir))
        echo("no valid snapshot found; restarting from step 0")
    store.record_event("resume", from_step=step, from_time=time)
    model = _drive(store, built, start, echo, restored=snap)
    echo(
        f"run complete at step {model.step_count} "
        f"(t={model.time:.1f} s) in {store.rundir}"
    )
    return model
