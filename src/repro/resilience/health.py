"""Cheap per-step numerical health checks.

The operational contract of a real-time forecaster is "never return
garbage": a NaN that leaks into the max-water-level product is worse
than a late forecast.  :class:`HealthMonitor` applies three rules every
:data:`HEALTH_EVERY` steps and raises :class:`~repro.errors.NumericalError`
on the first violation, which the recovery engine converts into a rollback:

1. **NaN/Inf** anywhere in a prognostic read buffer, ghost cells included;
2. **blow-up bound** — wet-cell water level beyond :data:`ETA_LIMIT`;
3. **CFL margin** — the current total depth (still water + surge) must
   keep ``sqrt(2 g D) * dt / dx`` below :data:`CFL_LIMIT` on every level.

Mass conservation is the physics sentinel's rule
(:mod:`repro.obs.physics`).  The rules read per-block reductions —
finite flags, wet cells, max |eta| over them, max D — that the compiled
nest makes for every block in one launch
(:func:`repro.core.loopnest.scan`, DESIGN.md section 9j); the per-block
NumPy body computes the same where there is no nest, and is the
reference it is held to.  The check runs on the state as it is when
called (after any injected fault), not on a record stamped inside the
step.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import GRAVITY
from repro.core import loopnest
from repro.errors import NumericalError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

#: Check cadence [steps].
HEALTH_EVERY = 1
#: Maximum plausible wet-cell water level [m].
ETA_LIMIT = 100.0
#: Maximum allowed Courant number ``sqrt(2 g D_max) dt / dx``.
CFL_LIMIT = 1.0
#: The straggler test: a rank is one beyond ``median + MAD_K * sigma``
#: (sigma from the MAD) and at least ``MIN_RATIO`` times the median.
MAD_K = 3.5
MIN_RATIO = 1.5


class HealthMonitor:
    """Per-step state validation every :data:`HEALTH_EVERY` steps."""

    def __init__(self) -> None:
        self.checks_run = 0

    def after_step(self, model) -> None:
        """Cadence-gated hook for ``RTiModel.run`` / the recovery engine."""
        if model.step_count % HEALTH_EVERY == 0:
            self.check(model)

    def check(self, model) -> None:
        """Run all checks now; raise :class:`NumericalError` on failure."""
        self.checks_run += 1
        if get_tracer().enabled:
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

    @staticmethod
    def _bounds(model, bid: int, dx: float, eta_max: float, d_max: float) -> None:
        """The blow-up and CFL rules of one block with a wet cell."""
        if eta_max > ETA_LIMIT:
            raise NumericalError(
                f"step {model.step_count}: water level blow-up in "
                f"block {bid}: |eta| = {eta_max:.1f} m > "
                f"{ETA_LIMIT:.1f} m"
            )
        courant = math.sqrt(2.0 * GRAVITY * d_max) * model.config.dt / dx
        if courant > CFL_LIMIT:
            raise NumericalError(
                f"step {model.step_count}: CFL margin violated in "
                f"block {bid}: Courant number {courant:.3f} > "
                f"{CFL_LIMIT:.3f} (D_max = {d_max:.1f} m)"
            )


class StepTimeMonitor:
    """MAD-based straggler detection over per-rank step times.

    Classic robust outlier test: a rank is a straggler when its window
    time exceeds ``median + MAD_K * 1.4826 * MAD`` (1.4826 scales the
    median absolute deviation to a normal-equivalent sigma).  A second
    guard, ``MIN_RATIO``, requires the rank to be at least that factor
    slower than the median — without it, a near-zero MAD (all ranks in
    lockstep) would flag microsecond jitter.

    The monitor is stateless and pure: every rank feeds it the same
    allreduce-shared ``{rank: seconds}`` map and deterministically
    computes the same verdict, which is what lets the survivable runtime
    make coordinated hedging decisions without a leader.
    """

    def stragglers(self, per_rank_seconds: dict[int, float]) -> list[int]:
        """Ranks flagged as stragglers, worst (largest excess) first."""
        if len(per_rank_seconds) < 3:
            return []  # no robust statistics from fewer than 3 samples
        times = np.array(
            [per_rank_seconds[r] for r in sorted(per_rank_seconds)]
        )
        med = float(np.median(times))
        mad = float(np.median(np.abs(times - med)))
        threshold = max(med + MAD_K * 1.4826 * mad, MIN_RATIO * med)
        flagged = [
            (per_rank_seconds[r] - threshold, r)
            for r in per_rank_seconds
            if per_rank_seconds[r] > threshold
        ]
        flagged.sort(key=lambda ex_r: (-ex_r[0], ex_r[1]))
        return [r for _ex, r in flagged]
