"""Load-balance machinery (Section IV-D).

* :mod:`repro.balance.perfmodel` — the empirical linear performance model
  of the NLMNT2 kernel (Figs. 5, 6): microbenchmark, least-squares fit,
  and the per-rank runtime estimate of Eq. 5;
* :mod:`repro.balance.hillclimb` — Algorithm 1: hill-climbing over block
  "separators" with the two-phase score (variance, then maximum).
"""

from repro.balance.perfmodel import (
    LinearPerfModel,
    fit_linear_model,
    measure_kernel_runtimes,
)
from repro.balance.hillclimb import (
    optimize_separators,
    score_variance,
    score_max,
)

__all__ = [
    "LinearPerfModel",
    "fit_linear_model",
    "measure_kernel_runtimes",
    "optimize_separators",
    "score_variance",
    "score_max",
]
