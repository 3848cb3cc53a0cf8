"""Persistent forecast driver: start, crash, resume.

:func:`start_run` executes a scenario with durable state (journal,
checkpoint spill, streamed products, signal capture) through the one
guarded loop, :class:`~repro.resilience.recovery.RecoveryEngine`: its
ring spills a snapshot before every step that is a multiple of the
checkpoint cadence, the product streamer is its monitor, and a state
the ring refuses to archive ends the run in
:class:`~repro.errors.NumericalError` — never a published non-finite
snapshot or a ``complete`` event.  :func:`resume_run`
inspects a run directory, rebuilds the model from the journaled
scenario, restores the newest *valid* snapshot (checksum-corrupt ones
are skipped with a warning), rewinds the product streams to match, and
integrates the remaining steps — producing a final state bitwise
identical to an uninterrupted run.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.model import RTiModel
from repro.errors import NumericalError, PersistError
from repro.obs.log import RunEvents, get_logger
from repro.persist.journal import JOURNAL_VERSION
from repro.persist.preflight import validate_scenario
from repro.persist.products import ProductStreamer
from repro.persist.scenario import BuiltScenario, build_scenario
from repro.persist.snapshot import SCHEMA_VERSION, grid_fingerprint
from repro.persist.store import RunStore

DEFAULT_CHECKPOINT_EVERY = 25

_LOG = get_logger("persist")


def _noecho(_msg: str) -> None:
    pass


def _run_to_completion(
    store: RunStore,
    model: RTiModel,
    built: BuiltScenario,
    checkpoint_every: int,
    eta_every: int,
    echo,
    restored=None,
) -> RTiModel:
    from repro.resilience.checkpoint import CheckpointRing
    from repro.resilience.recovery import RecoveryEngine

    streamer = ProductStreamer(store, model, eta_every=eta_every)
    streamer.sync_resume_point(model)
    if built.n_steps > model.step_count:
        # No rollback budget: a rewind would stream product rows twice,
        # so the first unusable state (a snapshot the ring refuses) ends
        # the run before it can publish anything non-finite.  Nothing is
        # restored from the ring, so one slot does; a resumed run's ring
        # holds the snapshot it restored, which is not written again.
        ring = CheckpointRing(capacity=1, store=store)
        if restored is not None:
            ring.hold(restored)
        engine = RecoveryEngine(
            model,
            built.n_steps * model.config.dt,
            monitor=streamer,
            ring=ring,
            checkpoint_every=checkpoint_every,
            max_rollbacks=0,
            sink=RunEvents(store),
        )
        model = engine.run()
        if engine.aborted:
            raise NumericalError(
                f"run stopped at step {model.step_count}: "
                f"{engine.events.of('recovery')[-1].detail}"
            )
    store.record_event(
        "complete", step=model.step_count, time=model.time
    )
    _LOG.info(
        "run_complete",
        step=model.step_count,
        sim_time_s=round(model.time, 3),
        rundir=str(store.rundir),
    )
    echo(
        f"run complete at step {model.step_count} "
        f"(t={model.time:.1f} s) in {store.rundir}"
    )
    return model


def start_run(
    rundir: Path,
    spec: dict,
    *,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    eta_every: int = 0,
    skip_preflight: bool = False,
    echo=_noecho,
) -> RTiModel:
    """Run a scenario with full persistence in a fresh run directory.

    The scenario is preflight-validated first (raising
    :class:`~repro.errors.ValidationError` with all findings on any
    error) and journaled in the ``run_start`` event, making the run
    resumable without any out-of-band information.
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
    model = RTiModel(built.grid, built.bathymetry, built.config)
    if built.source is not None:
        model.set_initial_condition(built.source)
    store.record_event(
        "run_start",
        journal_version=JOURNAL_VERSION,
        schema_version=SCHEMA_VERSION,
        scenario=built.spec,
        n_steps=built.n_steps,
        checkpoint_every=checkpoint_every,
        eta_every=eta_every,
        grid_fingerprint=grid_fingerprint(built.grid, built.config.dtype),
    )
    echo(
        f"persistent run: {built.n_steps} steps, checkpoint every "
        f"{checkpoint_every}, rundir {store.rundir}"
    )
    return _run_to_completion(
        store, model, built, checkpoint_every, eta_every, echo
    )


def resume_run(rundir: Path, *, echo=_noecho) -> RTiModel:
    """Resume an interrupted run to a bitwise-identical final state.

    Raises :class:`~repro.errors.PersistError` if the directory holds no
    resumable run (no journal, no ``run_start``, or already complete).
    """
    store = RunStore(rundir, create=False)
    warning = store.journal_warning()
    if warning:
        _LOG.warning("journal_torn", rundir=str(rundir), detail=warning)
        echo(f"warning: {warning}")
    start = store.first_event("run_start")
    if start is None:
        raise PersistError(
            f"{store.rundir} holds no journaled run to resume"
        )
    if store.status() == "complete":
        raise PersistError(f"run in {store.rundir} already completed")

    spec = start.get("scenario")
    if not isinstance(spec, dict):
        raise PersistError(
            f"run_start event in {store.rundir} carries no scenario spec"
        )
    built = build_scenario(spec)
    n_steps = int(start.get("n_steps", built.n_steps))
    built.n_steps = n_steps
    checkpoint_every = int(
        start.get("checkpoint_every", DEFAULT_CHECKPOINT_EVERY)
    )
    eta_every = int(start.get("eta_every", 0))

    model = RTiModel(built.grid, built.bathymetry, built.config)
    if built.source is not None:
        model.set_initial_condition(built.source)
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
    if snap is not None:
        snap.restore(model)
        _LOG.info(
            "snapshot_restored",
            step=snap.step,
            sim_time_s=round(snap.time, 3),
        )
        echo(f"restored snapshot of step {snap.step} (t={snap.time:.1f} s)")
    else:
        _LOG.warning("no_valid_snapshot", rundir=str(rundir))
        echo("no valid snapshot found; restarting from step 0")
    store.record_event(
        "resume",
        from_step=model.step_count,
        from_time=model.time,
    )
    return _run_to_completion(
        store, model, built, checkpoint_every, eta_every, echo,
        restored=snap,
    )
