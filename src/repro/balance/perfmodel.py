"""Empirical linear performance model of the NLMNT2 kernel (Figs. 5-6).

The paper fits the A100 microbenchmark to ``t = 1.09e-4 * cells + 46.2 us``
(R^2 = 0.942) and models a rank's runtime as the sum over its blocks
(Eq. 5):

    T = sum_i  slope * b_i + intercept   [us]

— the intercept being the per-kernel offloading overhead that makes
many-small-block ranks slow even when their cell counts are balanced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.kernelcost import KernelInvocation
from repro.hw.platform import PlatformSpec
from repro.hw.streams import LaunchMode, StreamSimulator

#: The paper's published A100 fit (Fig. 5).
PAPER_SLOPE_US_PER_CELL: float = 1.09e-4
PAPER_INTERCEPT_US: float = 46.2
PAPER_R2: float = 0.942


@dataclass(frozen=True)
class LinearPerfModel:
    """``t(cells) = slope * cells + intercept`` microseconds."""

    slope_us_per_cell: float
    intercept_us: float
    r2: float = 1.0

    def __post_init__(self) -> None:
        if self.slope_us_per_cell <= 0:
            raise ConfigurationError("slope must be positive")

    def kernel_time_us(self, cells: int) -> float:
        return self.slope_us_per_cell * cells + self.intercept_us

    def rank_time_us(self, block_cells: list[int]) -> float:
        """Eq. 5: a rank's estimated NLMNT2 time is the sum over blocks."""
        return sum(self.kernel_time_us(c) for c in block_cells)


def measure_kernel_runtimes(
    platform: PlatformSpec,
    cell_counts: list[int],
    n_queues: int = 4,
    repeats: int = 8,
    routine: str = "NLMNT2",
    traffic_multiplier: float | None = None,
) -> list[float]:
    """Microbenchmark (Fig. 5): per-invocation runtime for each block size.

    Mirrors the paper's methodology: the kernel is repeatedly launched
    asynchronously on multiple streams, and the average per-invocation
    time is reported.  By default the kernels carry the platform's
    *production* traffic so the fitted model is consistent with what the
    separator optimizer will balance; pass ``traffic_multiplier=1.0`` for
    a cache-resident algorithmic-minimum measurement.
    """
    out = []
    for cells in cell_counts:
        sim = StreamSimulator(
            platform,
            n_queues=n_queues,
            mode=LaunchMode.ASYNC,
            traffic_multiplier=traffic_multiplier,
        )
        sim.submit_all(
            [KernelInvocation(routine, cells) for _ in range(repeats)]
        )
        res = sim.run()
        # Per-call wall time, as the paper's timers measure it.
        out.append(
            sum(e.duration_us for e in res.events) / len(res.events)
        )
    return out


def fit_linear_model(
    cell_counts: list[int], times_us: list[float]
) -> LinearPerfModel:
    """Least-squares linear fit with R^2, as in Fig. 5."""
    if len(cell_counts) != len(times_us) or len(cell_counts) < 2:
        raise ConfigurationError("need >= 2 (cells, time) samples to fit")
    x = np.asarray(cell_counts, dtype=float)
    y = np.asarray(times_us, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LinearPerfModel(float(slope), float(intercept), r2)
