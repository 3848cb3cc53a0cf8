"""Online recalibration and re-tune of the decomposition from a traced run.

:func:`retune_from_rundir` (``repro retune``) folds a traced run's
per-block kernel spans into the Fig.-5 linear fit
(:mod:`repro.balance.calibrate`), reports drift against the platform's
stored reference model (:mod:`repro.hw.registry`), and feeds the
recalibrated model to the Algorithm-1 hill-climb re-tuner; the
resulting max/mean rank-time imbalance is exported through the metrics
registry as ``repro_rank_imbalance_ratio``.

That is all this module holds — :class:`RetuneReport`,
``_makespan_and_imbalance``, :func:`retune_from_rundir` and
:data:`IMBALANCE_GAUGE` — and ROADMAP item 4 builds the paper's Fig.-6
command on them.  How the repo *measures* itself is the ledger
(``benchmarks/ledger/`` + ``scripts/perf_ab.py``), not this package.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path

from repro.balance.calibrate import (
    ModelDrift,
    calibrate_from_spans,
    drift,
)
from repro.balance.perfmodel import LinearPerfModel
from repro.errors import ObservatoryError
from repro.obs.metrics import get_registry

#: Gauge exporting the predicted rank imbalance of the last retune.
IMBALANCE_GAUGE = "repro_rank_imbalance_ratio"


@dataclass
class RetuneReport:
    """Outcome of one live recalibration + re-tune cycle."""

    rundir: str
    system: str
    platform_key: str
    ranks: int
    model: LinearPerfModel
    reference: LinearPerfModel
    drift: ModelDrift
    base_makespan_us: float
    retuned_makespan_us: float
    imbalance_base: float  # max/mean predicted rank time, equal split
    imbalance_retuned: float
    blocks_per_rank: list[int]
    n_samples: int

    @property
    def speedup(self) -> float:
        if self.retuned_makespan_us <= 0:
            return 1.0
        return self.base_makespan_us / self.retuned_makespan_us

    def summary(self) -> str:
        m = self.model
        return "\n".join([
            f"recalibrated model: t = {m.slope_us_per_cell:.3e}*cells "
            f"+ {m.intercept_us:.1f} us (R^2={m.r2:.3f}, "
            f"{self.n_samples} kernel spans from {self.rundir})",
            self.drift.summary(),
            f"re-tuned decomposition ({self.ranks} ranks, "
            f"{self.system}): predicted makespan "
            f"{self.base_makespan_us:,.0f} -> "
            f"{self.retuned_makespan_us:,.0f} us "
            f"({self.speedup:.2f}x)",
            f"rank imbalance  : {self.imbalance_base:.3f}x -> "
            f"{self.imbalance_retuned:.3f}x (max/mean predicted rank "
            f"time; exported as {IMBALANCE_GAUGE})",
            f"blocks/rank     : {self.blocks_per_rank}",
        ])


def _makespan_and_imbalance(decomp, model: LinearPerfModel):
    times = [
        model.rank_time_us([it.n_cells for it in rw.items])
        for rw in decomp.ranks
    ]
    mean = statistics.fmean(times) if times else 0.0
    imbalance = max(times) / mean if mean > 0 else 1.0
    return (max(times) if times else 0.0), imbalance


def retune_from_rundir(
    rundir: str | Path,
    system: str = "squid-gpu",
    ranks: int = 16,
    grid: str = "kochi",
    iterations: int = 2000,
    seed: int = 0,
    routine: str = "NLMNT2",
) -> RetuneReport:
    """Recalibrate the cost model from a traced run and re-tune with it.

    Reads the rundir's recorded spans, fits the linear model from the
    per-block kernel spans, reports drift against the platform's stored
    reference model, and runs the Algorithm-1 separator optimization on
    the chosen grid (a named grid of :mod:`repro.persist.scenario`:
    ``"kochi"`` — the production Table-I grid — or ``"mini-kochi"``)
    under the recalibrated model.
    """
    from repro.balance.apply import optimized_decomposition
    from repro.balance.calibrate import kernel_samples
    from repro.hw.registry import get_system, platform_key_of
    from repro.obs.inspect import load_rundir
    from repro.par.decomposition import equal_cell_assignment
    from repro.persist.scenario import build_grid

    art = load_rundir(rundir)
    if not art.spans:
        raise ObservatoryError(
            f"{rundir} has no recorded spans; run the forecast with "
            "--export-trace first"
        )
    model = calibrate_from_spans(art.spans, routine=routine)
    n_samples = len(kernel_samples(art.spans, routine)[0])

    sysspec = get_system(system)
    platform = sysspec.platform
    platform_key = platform_key_of(platform) or platform.name
    from repro.hw.registry import reference_model_for

    reference = reference_model_for(platform_key)
    dr = drift(model, reference)

    g = build_grid(grid)
    base = equal_cell_assignment(g, ranks, split_blocks=False)
    opt = optimized_decomposition(
        g, ranks, platform, model=model, iterations=iterations, seed=seed
    )
    base_ms, base_imb = _makespan_and_imbalance(base, model)
    opt_ms, opt_imb = _makespan_and_imbalance(opt, model)

    get_registry().gauge(
        IMBALANCE_GAUGE,
        "max/mean predicted rank time of the re-tuned decomposition",
    ).set(opt_imb)

    return RetuneReport(
        rundir=str(rundir),
        system=system,
        platform_key=platform_key,
        ranks=ranks,
        model=model,
        reference=reference,
        drift=dr,
        base_makespan_us=base_ms,
        retuned_makespan_us=opt_ms,
        imbalance_base=base_imb,
        imbalance_retuned=opt_imb,
        blocks_per_rank=opt.blocks_per_rank(),
        n_samples=n_samples,
    )


__all__ = [
    "IMBALANCE_GAUGE",
    "RetuneReport",
    "retune_from_rundir",
]
