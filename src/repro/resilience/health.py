"""Cheap per-step numerical health checks.

The operational contract of a real-time forecaster is "never return
garbage": a NaN that leaks into the max-water-level product is worse
than a late forecast.  :class:`HealthMonitor` applies three rules every
:data:`HEALTH_EVERY` steps and raises :class:`~repro.errors.NumericalError`
on the first violation, which the recovery engine converts into a rollback:

1. **NaN/Inf** anywhere in a prognostic read buffer, ghost cells included;
2. **blow-up bound** — wet-cell water level beyond
   :data:`~repro.constants.ETA_LIMIT`;
3. **CFL margin** — the current total depth (still water + surge) must
   keep ``sqrt(2 g D) * dt / dx`` below :data:`~repro.constants.CFL_LIMIT`
   on every level.

Mass conservation is the physics sentinel's rule
(:mod:`repro.obs.physics`).  The rules read per-block reductions —
finite flags, wet cells, max |eta| over them, max D — that
:func:`repro.core.loopnest.scan` makes for every block in one launch of
the compiled nest, or by its NumPy reference body (DESIGN.md section 9j).
A monitor given a :class:`~repro.obs.physics.PhysicsSampler` hands the
rows it judged to it, so a checked step is one scan however many guards
read it.  The check runs on the state as it is when called (after any
injected fault), not on a record stamped inside the step.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import CFL_LIMIT, ETA_LIMIT, GRAVITY
from repro.core import loopnest
from repro.errors import NumericalError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

#: Check cadence [steps].
HEALTH_EVERY = 1
#: The straggler test: a rank is one beyond ``median + MAD_K * sigma``
#: (sigma from the MAD) and at least ``MIN_RATIO`` times the median.
MAD_K = 3.5
MIN_RATIO = 1.5


class HealthMonitor:
    """Per-step state validation every :data:`HEALTH_EVERY` steps; with a
    *physics* sampler, the physics sentinel on the same scan."""

    def __init__(self, physics=None) -> None:
        self.checks_run = 0
        self.physics = physics

    def after_step(self, model) -> None:
        """Cadence-gated hook for ``RTiModel.run`` / the recovery engine."""
        rows = self.check(model) if model.step_count % HEALTH_EVERY == 0 else None
        if self.physics is not None:
            self.physics.after_step(model, rows)

    def reset_baseline(self) -> None:
        """Recovery-engine hook: the sampler's baselines go."""
        if self.physics is not None:
            self.physics.reset_baseline()

    def check(self, model) -> list:
        """Run all checks now; raise :class:`NumericalError` on failure, else
        return the :func:`~repro.core.loopnest.scan` rows judged."""
        self.checks_run += 1
        if get_tracer().enabled:
            get_registry().counter(
                "repro_health_checks_total",
                "numerical health checks executed",
            ).inc()
        rows = loopnest.scan(model.states.values(), model.config.dry_threshold)
        for (bid, st), row in zip(model.states.items(), rows):
            for name, finite in zip("zmn", row):
                if not finite:
                    raise NumericalError(
                        f"step {model.step_count}: non-finite values in "
                        f"field {name} of block {bid}"
                    )
            if not row[3]:
                continue  # no wet cell: no level or depth to bound
            eta_max, d_max = row[4], row[5]
            if eta_max > ETA_LIMIT:
                raise NumericalError(
                    f"step {model.step_count}: water level blow-up in "
                    f"block {bid}: |eta| = {eta_max:.1f} m > "
                    f"{ETA_LIMIT:.1f} m"
                )
            courant = math.sqrt(2.0 * GRAVITY * d_max) * model.config.dt / st.dx
            if courant > CFL_LIMIT:
                raise NumericalError(
                    f"step {model.step_count}: CFL margin violated in "
                    f"block {bid}: Courant number {courant:.3f} > "
                    f"{CFL_LIMIT:.3f} (D_max = {d_max:.1f} m)"
                )
        return rows


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
