"""Cheap per-step numerical health checks.

The operational contract of a real-time forecaster is "never return
garbage": a NaN that leaks into the max-water-level product is worse
than a late forecast.  :class:`HealthMonitor` applies four rules on a
configurable cadence and raises :class:`~repro.errors.NumericalError` on
the first violation, which the recovery engine converts into a rollback:

1. **NaN/Inf** anywhere in a prognostic read buffer, ghost cells included;
2. **blow-up bound** — wet-cell water level beyond any physical tsunami;
3. **CFL margin** — the current total depth (still water + surge) must
   keep ``sqrt(2 g D) * dt / dx`` below 1 on every level;
4. **mass-conservation drift** (optional; only meaningful in a closed
   basin) — relative volume change against the first observation.

The first three read per-block reductions — finite flags, wet cells, max
|eta| over them, max D — that the compiled nest makes for every block in
one launch (:func:`repro.core.loopnest.scan`, DESIGN.md section 9j); the
per-block NumPy body computes the same where there is no nest, and is the
reference it is held to.  The check runs on the state as it is when called
(after any injected fault), not on a record stamped inside the step.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import GRAVITY
from repro.core import loopnest
from repro.errors import NumericalError
from repro.obs.trace import get_tracer


class HealthMonitor:
    """Per-step state validation with a configurable cadence.

    Parameters
    ----------
    every:
        Check cadence in steps (1 = every step).
    eta_limit:
        Maximum plausible wet-cell water level [m].
    cfl_limit:
        Maximum allowed Courant number ``sqrt(2 g D_max) dt / dx``.
    mass_tol:
        Relative volume-drift tolerance, or ``None`` to disable the mass
        check (open boundaries radiate volume out, so the check is only
        meaningful for closed basins).
    """

    def __init__(
        self,
        every: int = 1,
        eta_limit: float = 100.0,
        cfl_limit: float = 1.0,
        mass_tol: float | None = None,
    ) -> None:
        if every < 1:
            raise ValueError("cadence must be >= 1")
        self.every = every
        self.eta_limit = eta_limit
        self.cfl_limit = cfl_limit
        self.mass_tol = mass_tol
        self._v0: float | None = None
        self.checks_run = 0

    def after_step(self, model) -> None:
        """Cadence-gated hook for ``RTiModel.run`` / the recovery engine."""
        if model.step_count % self.every == 0:
            self.check(model)

    def reset_baseline(self) -> None:
        """Forget the mass baseline (after a degradation rebuilt the model)."""
        self._v0 = None

    def check(self, model) -> None:
        """Run all checks now; raise :class:`NumericalError` on failure."""
        self.checks_run += 1
        if get_tracer().enabled:
            from repro.obs.metrics import get_registry

            get_registry().counter(
                "repro_health_checks_total",
                "numerical health checks executed",
            ).inc()
        records = loopnest.scan(model.states.values(), model.config.dry_threshold)
        if records is None:
            self._check_numpy(model)
        else:  # the same rules, in the same order, on the nest's reductions
            for (bid, st), rec in zip(model.states.items(), records.tolist()):
                for name, finite in zip("zmn", rec):
                    if not finite:
                        raise self._nonfinite(model, name, bid)
                if rec[3]:
                    self._bounds(model, bid, st.dx, rec[4], rec[5])
        if self.mass_tol is not None:
            vol = model.total_volume()
            if self._v0 is None:
                self._v0 = vol
            elif self._v0 > 0:
                drift = abs(vol - self._v0) / self._v0
                if drift > self.mass_tol:
                    raise NumericalError(
                        f"step {model.step_count}: mass-conservation "
                        f"drift {drift:.2%} exceeds {self.mass_tol:.2%}"
                    )

    def _check_numpy(self, model) -> None:
        """The per-block rules on NumPy's reductions: the body the nest's
        :func:`~repro.core.loopnest.scan` is held to."""
        dry = model.config.dry_threshold
        for bid, st in model.states.items():
            for name, arr in (
                ("z", st.z_old),
                ("m", st.m_old),
                ("n", st.n_old),
            ):
                if not np.isfinite(arr).all():
                    raise self._nonfinite(model, name, bid)
            # One D per block and no gathered wet-cell copies: the largest D
            # is a wet cell's whenever there is one, and |eta| zeroed off the
            # wet cells peaks on them.
            depth = st.total_depth()
            wet = depth > dry
            if wet.any():
                eta = np.where(wet, st.eta_interior(), 0.0)
                eta_max = float(np.abs(eta, out=eta).max())
                self._bounds(model, bid, st.dx, eta_max, float(depth.max()))

    @staticmethod
    def _nonfinite(model, name: str, bid: int) -> NumericalError:
        return NumericalError(
            f"step {model.step_count}: non-finite values in "
            f"field {name} of block {bid}"
        )

    def _bounds(self, model, bid: int, dx: float, eta_max: float, d_max: float) -> None:
        """The blow-up and CFL rules of one block with a wet cell."""
        if eta_max > self.eta_limit:
            raise NumericalError(
                f"step {model.step_count}: water level blow-up in "
                f"block {bid}: |eta| = {eta_max:.1f} m > "
                f"{self.eta_limit:.1f} m"
            )
        courant = math.sqrt(2.0 * GRAVITY * d_max) * model.config.dt / dx
        if courant > self.cfl_limit:
            raise NumericalError(
                f"step {model.step_count}: CFL margin violated in "
                f"block {bid}: Courant number {courant:.3f} > "
                f"{self.cfl_limit:.3f} (D_max = {d_max:.1f} m)"
            )


class StepTimeMonitor:
    """MAD-based straggler detection over per-rank step times.

    Classic robust outlier test: a rank is a straggler when its window
    time exceeds ``median + mad_k * 1.4826 * MAD`` (1.4826 scales the
    median absolute deviation to a normal-equivalent sigma).  A second
    guard, ``min_ratio``, requires the rank to be at least that factor
    slower than the median — without it, a near-zero MAD (all ranks in
    lockstep) would flag microsecond jitter.

    The monitor is stateless and pure: every rank feeds it the same
    allreduce-shared ``{rank: seconds}`` map and deterministically
    computes the same verdict, which is what lets the survivable runtime
    make coordinated hedging decisions without a leader.
    """

    def __init__(self, mad_k: float = 3.5, min_ratio: float = 1.5) -> None:
        if mad_k <= 0 or min_ratio < 1.0:
            raise ValueError("mad_k must be > 0 and min_ratio >= 1")
        self.mad_k = mad_k
        self.min_ratio = min_ratio

    def stragglers(self, per_rank_seconds: dict[int, float]) -> list[int]:
        """Ranks flagged as stragglers, worst (largest excess) first."""
        if len(per_rank_seconds) < 3:
            return []  # no robust statistics from fewer than 3 samples
        times = np.array(
            [per_rank_seconds[r] for r in sorted(per_rank_seconds)]
        )
        med = float(np.median(times))
        mad = float(np.median(np.abs(times - med)))
        threshold = max(med + self.mad_k * 1.4826 * mad,
                        self.min_ratio * med)
        flagged = [
            (per_rank_seconds[r] - threshold, r)
            for r in per_rank_seconds
            if per_rank_seconds[r] > threshold
        ]
        flagged.sort(key=lambda ex_r: (-ex_r[0], ex_r[1]))
        return [r for _ex, r in flagged]
