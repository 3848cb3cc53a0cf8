"""The migration execution layer: replay the Fig.-2 pipeline on modeled hardware.

While :mod:`repro.core` runs the *numerics* at laptop scale, this package
replays the full-scale Kochi schedule (47 M cells, 108 000 steps) through
the discrete-event hardware model, reproducing the paper's performance
results: per-rank breakdowns (Figs. 3, 8), launch-strategy effects
(Figs. 10-12), communication optimization (Fig. 14) and the cross-platform
comparison (Fig. 15).

The schedule of one time step is static (fixed grids, fixed
decomposition), so the simulator times a single step in detail and
multiplies by the step count.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "launch": "ExecutionConfig build_routine_kernels",
    "breakdown": "RankBreakdown PhaseTime BREAKDOWN_PHASES",
    "perfsim": "PerformanceSimulator StepReport simulate_run_seconds",
})
