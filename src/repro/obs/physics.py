"""In-situ physics observability: numerical-health telemetry + sentinel.

Everything else under :mod:`repro.obs` watches the *system* — spans,
latencies, error budgets.  This module watches the *solution*: a
:class:`PhysicsSampler` rides the model's monitor hook, samples cheap
per-step diagnostics (relative mass drift, minimum CFL margin, max |eta|
and |flux|, wet-cell count and inundation-front delta) and, as the
divergence sentinel, turns each sample into a verdict — ``healthy`` /
``suspect`` / ``diverged`` — raising :class:`PhysicsDivergenceError` (a
:class:`~repro.errors.NumericalError`) so the recovery engine's rollback /
dt-halving / degradation machinery aborts a doomed run within a few
samples instead of at the NaN wall.  The diagnostics read the per-block
rows of :func:`repro.core.loopnest.scan`: the health check's own, handed
over by a :class:`~repro.resilience.health.HealthMonitor` that owns the
sampler, or one scan of the sampler's own.

Design constraints mirror the tracer's:

* **Non-mutating**: the sampler only reads ``z_old``/``m_old``/``n_old``
  and derived quantities — a run with sampling enabled is bitwise
  identical to one without (tier-1 guarded).
* **Cheap**: cadence-gated (:data:`SAMPLE_EVERY` steps) with a <5%
  overhead budget (tier-1 guarded); sample metrics and trace export only
  when the tracer is armed (a verdict is a run record: its counter always
  moves).

Exports ride the existing rails: ``repro_physics_*`` instruments,
Chrome-trace counter tracks (``"ph": "C"`` — see
:func:`repro.obs.export.physics_counter_events`), an atomic per-run
``physics.json``, and ``repro inspect RUNDIR --physics`` rendering the
health timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import guards
from repro.constants import CFL_LIMIT, ETA_LIMIT, GRAVITY
from repro.core import loopnest
from repro.errors import NumericalError
from repro.obs.log import RunEvents, ServiceEvent
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

_TRACER = get_tracer()

#: This guard's registry entry (:mod:`repro.guards`) declares the
#: verdict levels, the artifact's file name and its schema tag, once.
_KIND = guards.PHYSICS
PHYSICS_SCHEMA = _KIND.schema
PHYSICS_NAME = _KIND.artifact
#: Verdicts, in increasing severity.
HEALTHY, SUSPECT, DIVERGED = VERDICTS = _KIND.levels

#: Sampling cadence [steps] and how many samples a run keeps (the
#: oldest go first).
SAMPLE_EVERY = 5
MAX_SAMPLES = 4096

#: The sentinel's rules (:meth:`PhysicsSampler.evaluate`): relative mass
#: drift (suspect beyond it, diverged beyond ten times it) and its slope
#: per sample, the CFL margin floor, and the floor [m] and factor of late
#: |eta| growth over the trailing window.  The max |eta| limit and the
#: Courant bound are :mod:`repro.constants`' ``ETA_LIMIT`` and
#: ``CFL_LIMIT``, the health check's.
MASS_TOL = 5e-3
MASS_SLOPE_TOL = 1e-3
CFL_MARGIN_FLOOR = 0.05
ETA_FLOOR = 1.0
ETA_GROWTH_FACTOR = 4.0
#: Trailing samples the growth and slope rules look at, and consecutive
#: suspect samples that escalate to ``diverged``.
WINDOW = 6
PATIENCE = 3


class PhysicsDivergenceError(NumericalError):
    """The divergence sentinel declared the solution unrecoverable.

    Subclasses :class:`~repro.errors.NumericalError` so the recovery
    engine treats a sentinel verdict exactly like a health-monitor
    blow-up: rollback, dt-halving on repeats, degrade or abort.
    """


@dataclass
class PhysicsSample:
    """One cadence point of the numerical-health diagnostics."""

    step: int
    time: float
    mass_drift: float  # relative total-volume drift vs run baseline
    cfl_margin: float  # min over blocks of 1 - Courant number
    max_eta: float  # max |eta| over wet cells [m]
    max_flux: float  # max |m|,|n| over all blocks [m^2/s]
    wet_cells: int
    front_delta: int  # wet-cell count change since previous sample
    verdict: str = HEALTHY

    @property
    def finite(self) -> bool:
        return all(
            math.isfinite(v)
            for v in (
                self.mass_drift,
                self.cfl_margin,
                self.max_eta,
                self.max_flux,
            )
        )

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "time": self.time,
            "mass_drift": self.mass_drift,
            "cfl_margin": self.cfl_margin,
            "max_eta": self.max_eta,
            "max_flux": self.max_flux,
            "wet_cells": self.wet_cells,
            "front_delta": self.front_delta,
            "verdict": self.verdict,
        }


class PhysicsSampler:
    """Cadence-gated, non-mutating numerical-health sampler and the
    divergence sentinel over its samples.

    :meth:`sample` takes one sample and judges nothing.  The monitor hook
    :meth:`after_step` samples every :data:`SAMPLE_EVERY` steps and
    evaluates the sample against the rules below: they escalate
    ``healthy`` -> ``suspect``; :data:`PATIENCE` consecutive suspect
    samples — or any hard violation — escalate to ``diverged``, which
    raises :class:`PhysicsDivergenceError` so the caller's recovery
    machinery takes over.  Non-healthy verdicts go to *sink*.

    Suspect rules (soft, need persistence):
      * |mass drift| beyond :data:`MASS_TOL`, or its per-sample slope
        beyond :data:`MASS_SLOPE_TOL` (conservation bleeding away);
      * CFL margin below :data:`CFL_MARGIN_FLOOR` (stability collapsing);
      * max |eta| above :data:`ETA_FLOOR` growing by more than
        :data:`ETA_GROWTH_FACTOR` over the trailing :data:`WINDOW`
        samples with no source active (the initial condition is the
        only source, so late growth is spurious).

    Diverged rules (hard, immediate):
      * any non-finite diagnostic;
      * max |eta| beyond :data:`~repro.constants.ETA_LIMIT`;
      * CFL margin at or below zero;
      * |mass drift| beyond ``10 * MASS_TOL``.
    """

    def __init__(self, *, sink: RunEvents | None = None) -> None:
        self.samples: list[PhysicsSample] = []
        self.samples_taken = 0
        self.sink = sink if sink is not None else RunEvents()
        self.verdict = HEALTHY
        self.worst = HEALTHY
        self.aborts = 0
        self._streak = 0
        self._v0: float | None = None
        self._prev_wet: int | None = None
        self._metrics = None
        self._verdict_gauge = None

    # -- monitor hook ----------------------------------------------------

    def after_step(self, model, rows=None) -> None:
        """Sample and judge on the cadence; *rows*: the
        :func:`~repro.core.loopnest.scan` of the state, if one was made."""
        if model.step_count % SAMPLE_EVERY == 0:
            self._judge(self.sample(model, rows))

    # -- sampling --------------------------------------------------------

    def sample(self, model, rows=None) -> PhysicsSample:
        """Take one diagnostic sample of the model's current state, from
        *rows* (its :func:`~repro.core.loopnest.scan`) or one scan.

        Pure read: touches only the ``*_old`` (published) buffers and
        derived reductions, never the model itself — the bitwise-identity
        guarantee of physics sampling rests on this method.
        """
        volume = model.total_volume()
        if self._v0 is None:
            self._v0 = volume
        # repro.validation.conservation.mass_residual, on the volume in hand
        mass_drift = (volume - self._v0) / self._v0 if self._v0 > 0 else 0.0

        dt = model.config.dt
        if rows is None:
            rows = loopnest.scan(model.states.values(), model.config.dry_threshold)
        wet_total = 0
        max_eta = 0.0
        max_flux = 0.0
        cfl_margin = math.inf
        for st, (_, _, _, wet, eta, d_max, m, n) in zip(model.states.values(), rows):
            wet_total += int(wet)
            if wet:
                max_eta = max(max_eta, eta)
                courant = math.sqrt(2.0 * GRAVITY * d_max) * dt / st.dx
                cfl_margin = min(cfl_margin, CFL_LIMIT - courant)
            max_flux = max(max_flux, max(m, n))
        if not all(z and m and n for z, m, n, *_ in rows):
            # Python's max drops a NaN: a state that is not finite everywhere
            # has no maxima, and the sentinel reads the sample as non-finite.
            max_eta = max_flux = math.nan
        if not math.isfinite(cfl_margin):
            # All-dry grid: no wave anywhere, the CFL constraint is
            # vacuous — report full margin rather than dividing by the
            # (empty) wet set.
            cfl_margin = CFL_LIMIT if wet_total == 0 else cfl_margin

        front_delta = (
            0 if self._prev_wet is None else wet_total - self._prev_wet
        )
        self._prev_wet = wet_total

        smp = PhysicsSample(
            step=model.step_count,
            time=model.time,
            mass_drift=float(mass_drift),
            cfl_margin=float(cfl_margin),
            max_eta=max_eta,
            max_flux=max_flux,
            wet_cells=wet_total,
            front_delta=front_delta,
        )
        self.samples.append(smp)
        if len(self.samples) > MAX_SAMPLES:
            del self.samples[:-MAX_SAMPLES]
        self.samples_taken += 1
        if _TRACER.enabled:
            self._export(smp)
        return smp

    def _export(self, smp: PhysicsSample) -> None:
        if self._metrics is None:
            reg = get_registry()
            self._metrics = (
                reg.counter(
                    "repro_physics_samples_total",
                    "physics diagnostic samples taken",
                ),
                reg.gauge(
                    "repro_physics_mass_drift",
                    "relative total-volume drift vs run baseline",
                ),
                reg.gauge(
                    "repro_physics_cfl_margin",
                    "minimum CFL margin (1 - Courant) across blocks",
                ),
                reg.gauge(
                    "repro_physics_max_eta_m",
                    "max |eta| over wet cells [m]",
                ),
                reg.gauge(
                    "repro_physics_max_flux",
                    "max |flux| over all blocks [m^2/s]",
                ),
                reg.gauge(
                    "repro_physics_wet_cells", "wet-cell count"
                ),
                reg.gauge(
                    "repro_physics_front_delta",
                    "wet-cell count change since previous sample",
                ),
            )
        total, drift, margin, eta, flux, wet, front = self._metrics
        total.inc()
        drift.set(smp.mass_drift)
        margin.set(smp.cfl_margin)
        eta.set(smp.max_eta)
        flux.set(smp.max_flux)
        wet.set(smp.wet_cells)
        front.set(smp.front_delta)

    # -- verdicts --------------------------------------------------------

    def _judge(self, smp: PhysicsSample) -> None:
        verdict, reasons = self.evaluate(smp)
        smp.verdict = verdict
        if verdict == SUSPECT:
            self._streak += 1
            if self._streak >= PATIENCE:
                verdict = smp.verdict = DIVERGED
                reasons.append(
                    f"suspect for {self._streak} consecutive samples"
                )
        else:
            self._streak = self._streak if verdict == DIVERGED else 0
        self.verdict = verdict
        self.worst = _KIND.worst_of((self.worst, verdict))
        if verdict != HEALTHY:
            self.sink.emit(ServiceEvent(None, verdict, fields={
                "step": smp.step, "time": smp.time, "reasons": list(reasons),
            }))
        if _TRACER.enabled:
            self._export_verdict(verdict)
        if verdict == DIVERGED:
            self.aborts += 1
            # An abort is a raise, not a record: its counter is moved here,
            # under the records' metering rule (traced or not).
            get_registry().counter(
                "repro_physics_aborts_total",
                "runs aborted early by the divergence sentinel",
            ).inc()
            raise PhysicsDivergenceError(
                f"step {smp.step}: physics sentinel verdict diverged: "
                + "; ".join(reasons)
            )

    def evaluate(self, smp: PhysicsSample) -> tuple[str, list[str]]:
        """Score one sample; returns ``(verdict, reasons)``.

        Pure function of the sample plus the trailing window of samples —
        no side effects, so tests can probe rules directly.
        """
        if not smp.finite:
            return DIVERGED, ["non-finite diagnostics"]
        if smp.max_eta > ETA_LIMIT:
            return DIVERGED, [
                f"max |eta| {smp.max_eta:.3g} m beyond {ETA_LIMIT:g} m"
            ]
        if smp.cfl_margin <= 0.0:
            return DIVERGED, [
                f"CFL margin {smp.cfl_margin:.3g} collapsed to <= 0"
            ]
        if abs(smp.mass_drift) > 10.0 * MASS_TOL:
            return DIVERGED, [
                f"mass drift {smp.mass_drift:.3g} beyond hard tolerance "
                f"{10.0 * MASS_TOL:g}"
            ]

        reasons: list[str] = []
        if abs(smp.mass_drift) > MASS_TOL:
            reasons.append(
                f"mass drift {smp.mass_drift:.3g} beyond {MASS_TOL:g}"
            )
        tail = self.samples[-WINDOW:]
        if len(tail) >= 2:
            slope = (tail[-1].mass_drift - tail[0].mass_drift) / (
                len(tail) - 1
            )
            if abs(slope) > MASS_SLOPE_TOL:
                reasons.append(
                    f"mass-drift slope {slope:.3g}/sample beyond "
                    f"{MASS_SLOPE_TOL:g}"
                )
            low = min(s.max_eta for s in tail)
            if (
                smp.max_eta > ETA_FLOOR
                and low > 0.0
                and smp.max_eta / low > ETA_GROWTH_FACTOR
            ):
                reasons.append(
                    f"max |eta| grew {smp.max_eta / low:.2f}x over "
                    f"{len(tail)} samples with no source"
                )
        if smp.cfl_margin < CFL_MARGIN_FLOOR:
            reasons.append(
                f"CFL margin {smp.cfl_margin:.3g} below floor "
                f"{CFL_MARGIN_FLOOR:g}"
            )
        return (SUSPECT, reasons) if reasons else (HEALTHY, reasons)

    def _export_verdict(self, verdict: str) -> None:
        if self._verdict_gauge is None:
            self._verdict_gauge = get_registry().gauge(
                "repro_physics_verdict",
                "current sentinel verdict (0 healthy, 1 suspect, 2 diverged)",
            )
        self._verdict_gauge.set(VERDICTS.index(verdict))

    # -- lifecycle -------------------------------------------------------

    @property
    def events(self) -> list[dict]:
        """Non-healthy verdicts, oldest first, in the ``physics.json`` shape."""
        return [
            {"verdict": ev.kind, **ev.fields} for ev in self.sink.of("physics")
        ]

    def reset_baseline(self) -> None:
        """Re-seed after a rollback/degradation (recovery-engine hook).

        The mass baseline and front history re-seed from the next sample,
        and the rules' window starts empty: the restored state must not be
        judged against the diverging trajectory, or the sentinel re-fires
        on stale evidence and the retry can never succeed.  Verdict
        history (``worst``, ``events``, ``aborts``) is preserved for
        reporting.
        """
        self._v0 = None
        self._prev_wet = None
        self.samples.clear()
        self._streak = 0
        self.verdict = HEALTHY

    def to_dict(self) -> dict:
        """The ``physics.json`` body: the sample timeline, the worst
        verdict seen, the sentinel's events, aborts and thresholds."""
        return {
            "every": SAMPLE_EVERY,
            "samples_taken": self.samples_taken,
            "samples": [s.to_dict() for s in self.samples],
            "verdict": self.worst,
            "events": self.events,
            "aborts": self.aborts,
            "thresholds": {
                "mass_tol": MASS_TOL,
                "mass_slope_tol": MASS_SLOPE_TOL,
                "cfl_margin_floor": CFL_MARGIN_FLOOR,
                "eta_limit": ETA_LIMIT,
                "eta_floor": ETA_FLOOR,
                "eta_growth_factor": ETA_GROWTH_FACTOR,
                "window": WINDOW,
                "patience": PATIENCE,
            },
        }


# ---------------------------------------------------------------------------
# physics.json document
# ---------------------------------------------------------------------------


def physics_doc(
    sampler: PhysicsSampler | None = None,
    verdict: str | None = None,
    counts: dict | None = None,
    requests: list[dict] | None = None,
) -> dict:
    """Assemble a ``physics.json`` document.

    A single run contributes its *sampler* (sample timeline plus sentinel
    events); a service soak contributes *counts* and *requests* instead —
    see :meth:`repro.guards.GuardKind.doc`.
    """
    body = sampler.to_dict() if sampler is not None else None
    return _KIND.doc(verdict, body, counts, requests)


#: The per-artifact names: the registry entry's publisher and loader.
write_physics_json = _KIND.publish
load_physics_report = _KIND.load


def physics_brief(doc: dict) -> str:
    """The physics clause of a forecast summary line."""
    aborts = doc.get("aborts", 0)
    return f", {aborts} sentinel abort(s)" if aborts else ""


_VERDICT_MARKS = {HEALTHY: " ", SUSPECT: "?", DIVERGED: "!"}


def render_physics_doc(doc: dict) -> tuple[list[str], bool]:
    """Human-readable health timeline; ``ok`` is False on divergence.

    Mirrors :func:`repro.obs.slo.render_slo_doc`'s contract so the CLI
    can gate on the returned flag.
    """
    verdict = doc.get("verdict", HEALTHY)
    ok = verdict != DIVERGED
    lines = [f"physics verdict: {verdict}"]
    samples = doc.get("samples") or []
    if samples:
        lines.append(
            f"{'step':>7} {'time[s]':>9} {'mass drift':>11} "
            f"{'cfl margin':>11} {'max eta[m]':>11} {'wet':>7}  verdict"
        )
        for s in samples:
            mark = _VERDICT_MARKS.get(s.get("verdict", HEALTHY), " ")
            lines.append(
                f"{s.get('step', 0):>7} {s.get('time', 0.0):>9.1f} "
                f"{s.get('mass_drift', 0.0):>11.3e} "
                f"{s.get('cfl_margin', 0.0):>11.3f} "
                f"{s.get('max_eta', 0.0):>11.3f} "
                f"{s.get('wet_cells', 0):>7} "
                f"{mark} {s.get('verdict', HEALTHY)}"
            )
    events = doc.get("events") or []
    if events:
        lines.append(f"sentinel events ({len(events)}):")
        for ev in events:
            reasons = "; ".join(ev.get("reasons", ()))
            lines.append(
                f"  step {ev.get('step', 0):>6} t={ev.get('time', 0.0):>8.1f}s "
                f"{ev.get('verdict', '?'):>8}: {reasons}"
            )
    lines += _KIND.render_soak(doc)
    if doc.get("aborts"):
        lines.append(f"sentinel aborts: {doc['aborts']}")
    return lines, ok
