"""Conservation and well-balancedness checkers.

Non-mutating residuals (:func:`mass_residual`,
:func:`lake_at_rest_residual`) — pure reads of the model's current
state, safe to call from an ``after_step`` monitor every step.  The
in-situ physics sampler (:mod:`repro.obs.physics`) is built on these.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import RTiModel


def mass_residual(model: RTiModel, v0: float) -> float:
    """Relative total-volume drift against baseline *v0*, without stepping.

    Pure read: safe to call mid-run from a monitor.  Returns 0.0 for a
    dry basin (``v0 <= 0``) so per-step samplers need no special case.
    """
    if v0 <= 0:
        return 0.0
    return (model.total_volume() - v0) / v0


def lake_at_rest_residual(model: RTiModel) -> float:
    """Max |eta| over wet cells plus max |flux|, without stepping.

    A well-balanced scheme keeps still water exactly still over any
    bathymetry; this measures how far the *current* state deviates.
    Pure read: safe to call mid-run from a monitor.
    """
    worst = 0.0
    for st in model.states.values():
        wet = st.total_depth() > model.config.dry_threshold
        if wet.any():
            worst = max(worst, float(np.abs(st.eta_interior()[wet]).max()))
        worst = max(worst, float(np.abs(st.m_old).max()))
        worst = max(worst, float(np.abs(st.n_old).max()))
    return worst
