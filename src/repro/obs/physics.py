"""In-situ physics observability: numerical-health telemetry + sentinel.

Everything else under :mod:`repro.obs` watches the *system* — spans,
latencies, error budgets.  This module watches the *solution*: a
:class:`PhysicsSampler` rides the model's monitor hook and samples cheap
per-step diagnostics (relative mass drift, minimum CFL margin, max |eta|
and |flux|, wet-cell count and inundation-front delta, robust EWMA+MAD
anomaly scores over gauge series), and a :class:`DivergenceSentinel`
turns those diagnostics into verdicts — ``healthy`` / ``suspect`` /
``diverged`` — raising :class:`PhysicsDivergenceError` (a
:class:`~repro.errors.NumericalError`) so the recovery engine's
rollback / dt-halving / degradation machinery aborts a doomed run within
a few samples instead of at the NaN wall.

Design constraints mirror the tracer's:

* **Non-mutating**: the sampler only reads ``z_old``/``m_old``/``n_old``
  and derived quantities — a run with sampling enabled is bitwise
  identical to one without (tier-1 guarded).
* **Cheap**: cadence-gated (``every`` steps) with a <5% overhead budget
  (tier-1 guarded); sample metrics and trace export only when the tracer
  is armed (a verdict is a run record: its counter always moves).

Exports ride the existing rails: ``repro_physics_*`` instruments (the
anomaly histogram carries trace-id exemplars), Chrome-trace counter
tracks (``"ph": "C"`` — see :func:`repro.obs.export.physics_counter_events`),
an atomic per-run ``physics.json``, and ``repro inspect RUNDIR
--physics`` rendering the health timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import guards
from repro.constants import GRAVITY
from repro.core import loopnest
from repro.errors import ConfigurationError, NumericalError
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

#: MAD -> sigma for normally distributed data (same constant the
#: step-time watchdog uses).
MAD_SIGMA = 1.4826

#: Buckets for the anomaly-score histogram (dimensionless sigmas).
ANOMALY_BUCKETS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


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
    gauge_anomaly: float  # max robust anomaly score over gauge series
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
                self.gauge_anomaly,
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
            "gauge_anomaly": self.gauge_anomaly,
            "verdict": self.verdict,
        }


class RobustScore:
    """Streaming EWMA + MAD-style anomaly score for one series.

    Tracks an exponentially weighted mean and mean absolute deviation;
    ``score(x)`` is |x - ewma| in normal-equivalent sigmas
    (``MAD_SIGMA * ewmad``), evaluated *before* folding ``x`` in so a
    genuine outlier cannot vouch for itself.  Returns 0 during warmup
    and guards the near-zero-deviation regime with an absolute floor so
    a flat series (still water) never divides by zero.
    """

    def __init__(
        self, alpha: float = 0.25, warmup: int = 4, floor: float = 1e-9
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.warmup = warmup
        self.floor = floor
        self.reset()

    def reset(self) -> None:
        self._mean = 0.0
        self._mad = 0.0
        self._n = 0

    def score(self, x: float) -> float:
        if not math.isfinite(x):
            return math.inf
        out = 0.0
        if self._n >= self.warmup:
            sigma = max(MAD_SIGMA * self._mad, self.floor, 1e-3 * abs(self._mean))
            out = abs(x - self._mean) / sigma
        if self._n == 0:
            self._mean = x
        else:
            self._mean += self.alpha * (x - self._mean)
            self._mad += self.alpha * (abs(x - self._mean) - self._mad)
        self._n += 1
        return out


class PhysicsSampler:
    """Cadence-gated, non-mutating numerical-health sampler.

    Any object with ``after_step(model)`` composes with it via
    :class:`repro.core.CompositeMonitor`; typically it is owned and
    driven by a :class:`DivergenceSentinel` instead of being registered
    directly (register one or the other, not both, or each step is
    sampled twice).
    """

    def __init__(
        self,
        every: int = 5,
        recorder=None,
        alpha: float = 0.25,
        max_samples: int = 4096,
    ) -> None:
        if every < 1:
            raise ConfigurationError("sampling cadence must be >= 1 step")
        self.every = every
        self.recorder = recorder
        self.alpha = alpha
        self.max_samples = max_samples
        self.samples: list[PhysicsSample] = []
        self.samples_taken = 0
        self._v0: float | None = None
        self._prev_wet: int | None = None
        self._scores: dict[str, RobustScore] = {}
        self._metrics = None

    # -- sampling --------------------------------------------------------

    def after_step(self, model) -> None:
        if model.step_count % self.every == 0:
            self.sample(model)

    def sample(self, model) -> PhysicsSample:
        """Take one diagnostic sample of the model's current state.

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
        thr = model.config.dry_threshold
        wet_total = 0
        max_eta = 0.0
        max_flux = 0.0
        cfl_margin = math.inf
        blocks, finite = _block_maxima(model.states.values(), thr)
        for dx, n_wet, eta, d_max, flux in blocks:
            wet_total += n_wet
            if n_wet:
                max_eta = max(max_eta, eta)
                courant = math.sqrt(2.0 * GRAVITY * d_max) * dt / dx
                cfl_margin = min(cfl_margin, 1.0 - courant)
            max_flux = max(max_flux, flux)
        if not finite:
            # Python's max drops a NaN: a state that is not finite everywhere
            # has no maxima, and the sentinel reads the sample as non-finite.
            max_eta = max_flux = math.nan
        if not math.isfinite(cfl_margin):
            # All-dry grid: no wave anywhere, the CFL constraint is
            # vacuous — report full margin rather than dividing by the
            # (empty) wet set.
            cfl_margin = 1.0 if wet_total == 0 else cfl_margin

        front_delta = (
            0 if self._prev_wet is None else wet_total - self._prev_wet
        )
        self._prev_wet = wet_total

        anomaly = 0.0
        if self.recorder is not None:
            for g in self.recorder.gauges:
                if not g.eta:
                    continue
                sc = self._scores.get(g.name)
                if sc is None:
                    sc = self._scores[g.name] = RobustScore(alpha=self.alpha)
                anomaly = max(anomaly, sc.score(g.eta[-1]))

        smp = PhysicsSample(
            step=model.step_count,
            time=model.time,
            mass_drift=float(mass_drift),
            cfl_margin=float(cfl_margin),
            max_eta=max_eta,
            max_flux=max_flux,
            wet_cells=wet_total,
            front_delta=front_delta,
            gauge_anomaly=float(anomaly),
        )
        self.samples.append(smp)
        if len(self.samples) > self.max_samples:
            del self.samples[: -self.max_samples]
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
                reg.histogram(
                    "repro_physics_anomaly",
                    "robust gauge-series anomaly score [sigma]",
                    buckets=ANOMALY_BUCKETS,
                ),
            )
        total, drift, margin, eta, flux, wet, front, anom = self._metrics
        total.inc()
        drift.set(smp.mass_drift)
        margin.set(smp.cfl_margin)
        eta.set(smp.max_eta)
        flux.set(smp.max_flux)
        wet.set(smp.wet_cells)
        front.set(smp.front_delta)
        ctx = _TRACER.current_context()
        anom.observe(
            smp.gauge_anomaly,
            trace_id=ctx.trace_id if ctx is not None else None,
        )

    # -- lifecycle -------------------------------------------------------

    def reset_baseline(self) -> None:
        """Forget baselines after a rollback or a grid/dt change.

        Mirrors :meth:`repro.resilience.HealthMonitor.reset_baseline`:
        the mass baseline, front history, and gauge anomaly statistics
        all re-seed from the next sample so restored state is not judged
        against a pre-rollback trajectory.
        """
        self._v0 = None
        self._prev_wet = None
        for sc in self._scores.values():
            sc.reset()

    def to_dict(self) -> dict:
        return {
            "every": self.every,
            "samples_taken": self.samples_taken,
            "samples": [s.to_dict() for s in self.samples],
        }


def _block_maxima(states, dry) -> tuple[list, bool]:
    """Per block ``(dx, wet cells, max |eta| over them, max D, max |M|, |N|)``
    and whether every block's z, M and N are finite: on the nest, its
    :func:`~repro.core.loopnest.scan` says whether, and gives the maxima when
    they are; NumPy gives the rest."""
    records = loopnest.scan(states, dry)
    if records is not None:
        rows = records.tolist()
        if all(z and m and n for z, m, n, *_ in rows):
            return [
                (st.dx, int(wet), eta, depth, max(m, n))
                for st, (_, _, _, wet, eta, depth, m, n) in zip(states, rows)
            ], True
    blocks, finite = [], records is None  # the nest has said it is not
    for st in states:
        depth = st.total_depth()
        wet = depth > dry
        n_wet = int(np.count_nonzero(wet))
        eta = float(np.abs(st.eta_interior()[wet]).max()) if n_wet else 0.0
        d_max = float(depth.max()) if n_wet else 0.0
        peaks = float(np.abs(st.m_old).max()), float(np.abs(st.n_old).max())
        blocks.append((st.dx, n_wet, eta, d_max, max(peaks)))
        # |M| and |N| peak at a non-finite value if there is one; z may hide
        # one from its wet cells.
        finite = finite and all(map(math.isfinite, peaks))
        finite = finite and bool(np.isfinite(st.z_old).all())
    return blocks, finite


class DivergenceSentinel:
    """Turn physics samples into verdicts; abort runs that are doomed.

    Owns and drives a :class:`PhysicsSampler` through the monitor hook,
    evaluating every new sample against the rules below.  Rules escalate
    ``healthy`` -> ``suspect``; *patience* consecutive suspect samples —
    or any hard violation — escalate to ``diverged``, which (with
    *abort* set) raises :class:`PhysicsDivergenceError` so the caller's
    recovery machinery takes over.

    Suspect rules (soft, need persistence):
      * |mass drift| beyond *mass_tol*, or its per-sample slope beyond
        *mass_slope_tol* (conservation bleeding away);
      * CFL margin below *cfl_margin_floor* (stability collapsing);
      * max |eta| above *eta_floor* growing by more than
        *eta_growth_factor* over the trailing *window* samples with no
        source active (the initial condition is the only source, so late
        growth is spurious);
      * gauge anomaly score beyond *anomaly_limit* sigmas.

    Diverged rules (hard, immediate):
      * any non-finite diagnostic;
      * max |eta| beyond *eta_limit*;
      * CFL margin at or below zero;
      * |mass drift| beyond ``10 * mass_tol``.
    """

    def __init__(
        self,
        sampler: PhysicsSampler | None = None,
        *,
        mass_tol: float = 5e-3,
        mass_slope_tol: float = 1e-3,
        cfl_margin_floor: float = 0.05,
        eta_limit: float = 100.0,
        eta_floor: float = 1.0,
        eta_growth_factor: float = 4.0,
        anomaly_limit: float = 8.0,
        window: int = 6,
        patience: int = 3,
        abort: bool = True,
        sink: RunEvents | None = None,
    ) -> None:
        if window < 2:
            raise ConfigurationError("sentinel window must be >= 2 samples")
        if patience < 1:
            raise ConfigurationError("sentinel patience must be >= 1")
        self.sampler = sampler if sampler is not None else PhysicsSampler()
        self.mass_tol = mass_tol
        self.mass_slope_tol = mass_slope_tol
        self.cfl_margin_floor = cfl_margin_floor
        self.eta_limit = eta_limit
        self.eta_floor = eta_floor
        self.eta_growth_factor = eta_growth_factor
        self.anomaly_limit = anomaly_limit
        self.window = window
        self.patience = patience
        self.abort = abort
        self.sink = sink if sink is not None else RunEvents()
        self.verdict = HEALTHY
        self.worst = HEALTHY
        self.aborts = 0
        self._streak = 0
        self._seen = 0
        self._metrics = None

    # -- monitor hook ----------------------------------------------------

    def after_step(self, model) -> None:
        self.sampler.after_step(model)
        while self._seen < len(self.sampler.samples):
            smp = self.sampler.samples[self._seen]
            self._seen += 1
            self._judge(smp)

    def _judge(self, smp: PhysicsSample) -> None:
        verdict, reasons = self.evaluate(smp)
        smp.verdict = verdict
        if verdict == SUSPECT:
            self._streak += 1
            if self._streak >= self.patience:
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
        if verdict == DIVERGED and self.abort:
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

    # -- rules -----------------------------------------------------------

    def evaluate(self, smp: PhysicsSample) -> tuple[str, list[str]]:
        """Score one sample; returns ``(verdict, reasons)``.

        Pure function of the sample plus the sampler's trailing window —
        no side effects, so tests can probe rules directly.
        """
        if not smp.finite:
            return DIVERGED, ["non-finite diagnostics"]
        if smp.max_eta > self.eta_limit:
            return DIVERGED, [
                f"max |eta| {smp.max_eta:.3g} m beyond {self.eta_limit:g} m"
            ]
        if smp.cfl_margin <= 0.0:
            return DIVERGED, [
                f"CFL margin {smp.cfl_margin:.3g} collapsed to <= 0"
            ]
        if abs(smp.mass_drift) > 10.0 * self.mass_tol:
            return DIVERGED, [
                f"mass drift {smp.mass_drift:.3g} beyond hard tolerance "
                f"{10.0 * self.mass_tol:g}"
            ]

        reasons: list[str] = []
        if abs(smp.mass_drift) > self.mass_tol:
            reasons.append(
                f"mass drift {smp.mass_drift:.3g} beyond {self.mass_tol:g}"
            )
        tail = self.sampler.samples[-self.window :]
        if len(tail) >= 2:
            slope = (tail[-1].mass_drift - tail[0].mass_drift) / (
                len(tail) - 1
            )
            if abs(slope) > self.mass_slope_tol:
                reasons.append(
                    f"mass-drift slope {slope:.3g}/sample beyond "
                    f"{self.mass_slope_tol:g}"
                )
            low = min(s.max_eta for s in tail)
            if (
                smp.max_eta > self.eta_floor
                and low > 0.0
                and smp.max_eta / low > self.eta_growth_factor
            ):
                reasons.append(
                    f"max |eta| grew {smp.max_eta / low:.2f}x over "
                    f"{len(tail)} samples with no source"
                )
        if smp.cfl_margin < self.cfl_margin_floor:
            reasons.append(
                f"CFL margin {smp.cfl_margin:.3g} below floor "
                f"{self.cfl_margin_floor:g}"
            )
        if smp.gauge_anomaly > self.anomaly_limit:
            reasons.append(
                f"gauge anomaly {smp.gauge_anomaly:.2f} sigma beyond "
                f"{self.anomaly_limit:g}"
            )
        return (SUSPECT, reasons) if reasons else (HEALTHY, reasons)

    # -- bookkeeping -----------------------------------------------------

    @property
    def events(self) -> list[dict]:
        """Non-healthy verdicts, oldest first, in the ``physics.json`` shape."""
        return [
            {"verdict": ev.kind, **ev.fields} for ev in self.sink.of("physics")
        ]

    def _export_verdict(self, verdict: str) -> None:
        if self._metrics is None:
            self._metrics = get_registry().gauge(
                "repro_physics_verdict",
                "current sentinel verdict (0 healthy, 1 suspect, 2 diverged)",
            )
        self._metrics.set(VERDICTS.index(verdict))

    def reset_baseline(self) -> None:
        """Re-seed after a rollback/degradation (recovery-engine hook).

        The restored state must not be judged against the diverging
        trajectory's window, or the sentinel re-fires on stale evidence
        and the retry can never succeed.  Verdict history (``worst``,
        ``events``, ``aborts``) is preserved for reporting.
        """
        self.sampler.reset_baseline()
        self.sampler.samples.clear()
        self._seen = 0
        self._streak = 0
        self.verdict = HEALTHY

    def to_dict(self) -> dict:
        return {
            "verdict": self.worst,
            "current": self.verdict,
            "aborts": self.aborts,
            "events": self.events,
            "thresholds": {
                "mass_tol": self.mass_tol,
                "mass_slope_tol": self.mass_slope_tol,
                "cfl_margin_floor": self.cfl_margin_floor,
                "eta_limit": self.eta_limit,
                "eta_floor": self.eta_floor,
                "eta_growth_factor": self.eta_growth_factor,
                "anomaly_limit": self.anomaly_limit,
                "window": self.window,
                "patience": self.patience,
            },
        }


# ---------------------------------------------------------------------------
# physics.json document
# ---------------------------------------------------------------------------


def physics_doc(
    sampler: PhysicsSampler | None = None,
    sentinel: DivergenceSentinel | None = None,
    verdict: str | None = None,
    counts: dict | None = None,
    requests: list[dict] | None = None,
) -> dict:
    """Assemble a ``physics.json`` document.

    A single run contributes *sampler* + *sentinel* (sample timeline
    plus sentinel events); a service soak contributes *counts* and
    *requests* instead — see :meth:`repro.guards.GuardKind.doc`.
    """
    if sentinel is not None and sampler is None:
        sampler = sentinel.sampler
    body = sampler.to_dict() if sampler is not None else {}
    if sentinel is not None:
        ledger = sentinel.to_dict()  # its "verdict" is the worst one seen
        keys = ("verdict", "events", "aborts", "thresholds")
        body.update((k, ledger[k]) for k in keys)
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
            f"{'cfl margin':>11} {'max eta[m]':>11} {'wet':>7} "
            f"{'anomaly':>8}  verdict"
        )
        for s in samples:
            mark = _VERDICT_MARKS.get(s.get("verdict", HEALTHY), " ")
            lines.append(
                f"{s.get('step', 0):>7} {s.get('time', 0.0):>9.1f} "
                f"{s.get('mass_drift', 0.0):>11.3e} "
                f"{s.get('cfl_margin', 0.0):>11.3f} "
                f"{s.get('max_eta', 0.0):>11.3f} "
                f"{s.get('wet_cells', 0):>7} "
                f"{s.get('gauge_anomaly', 0.0):>8.2f} "
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
