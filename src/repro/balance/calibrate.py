"""Online calibration of the linear kernel-cost model from live traces.

The paper fits ``t = slope·cells + intercept`` from an *offline*
microbenchmark (Fig. 5) and feeds it to the Algorithm-1 separator
re-tuner.  This module closes the loop for production runs: the model's
per-block ``NLMASS.kernel``/``NLMNT2.kernel`` spans (each stamped with
its block's cell count) are folded into the same
:func:`~repro.balance.perfmodel.fit_linear_model`, and the resulting
model is compared against the platform's stored reference model
(:func:`repro.hw.registry.reference_model_for`) to quantify **drift** —
the signal that a platform's cost model no longer matches reality and
the decomposition should be re-tuned (``repro retune --from-rundir``).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

from repro.balance.perfmodel import LinearPerfModel, fit_linear_model
from repro.errors import CalibrationError, ConfigurationError

#: Span-name suffix of the per-block kernel spans emitted by
#: :func:`repro.core.pipeline.run_step`.
KERNEL_SPAN_SUFFIX = ".kernel"

#: Default routine to calibrate — the paper's model is an NLMNT2 model.
DEFAULT_ROUTINE = "NLMNT2"


def kernel_samples(
    spans: list[dict], routine: str = DEFAULT_ROUTINE
) -> tuple[list[int], list[float]]:
    """Extract ``(cells, dur_us)`` pairs from recorded kernel spans.

    Accepts exported span dicts from the tracer or from a rundir's
    ``trace.json``; only spans named ``<routine>.kernel`` that carry a
    ``cells`` arg contribute.
    """
    name = routine + KERNEL_SPAN_SUFFIX
    cells: list[int] = []
    times: list[float] = []
    for s in spans:
        if s.get("name") != name:
            continue
        args = s.get("args") or {}
        c = args.get("cells")
        if c is None:
            continue
        cells.append(int(c))
        times.append(float(s.get("dur_us", 0.0)))
    return cells, times


def calibrate_from_spans(
    spans: list[dict], routine: str = DEFAULT_ROUTINE
) -> LinearPerfModel:
    """Fit the linear cost model from recorded kernel spans.

    Per-block durations are aggregated to their median per distinct cell
    count before fitting, so a handful of noisy outliers (GC pauses,
    first-touch page faults) cannot tilt the slope.
    """
    cells, times = kernel_samples(spans, routine)
    by_size: dict[int, list[float]] = defaultdict(list)
    for c, t in zip(cells, times):
        by_size[c].append(t)
    if len(by_size) < 2:
        raise CalibrationError(
            f"need kernel spans at >= 2 distinct block sizes to fit "
            f"{routine}; found {len(by_size)} "
            f"(trace the run with repro forecast --export-trace)"
        )
    sizes = sorted(by_size)
    medians = [statistics.median(by_size[c]) for c in sizes]
    try:
        return fit_linear_model(sizes, medians)
    except ConfigurationError as exc:
        raise CalibrationError(
            f"degenerate {routine} fit from recorded spans: {exc}"
        ) from exc


@dataclass(frozen=True)
class ModelDrift:
    """Fitted-versus-reference comparison of two linear cost models."""

    slope_delta_frac: float  # (fitted - reference) / reference
    intercept_delta_us: float  # fitted - reference
    r2_fitted: float
    r2_reference: float
    slope_tol: float

    @property
    def drifted(self) -> bool:
        """Has the platform's cost model materially changed?"""
        return abs(self.slope_delta_frac) > self.slope_tol

    def summary(self) -> str:
        verdict = "DRIFTED" if self.drifted else "within tolerance"
        return (
            f"model drift     : slope {self.slope_delta_frac * 100:+.1f}% "
            f"vs reference (tol {self.slope_tol * 100:.0f}%), "
            f"intercept {self.intercept_delta_us:+.1f} us, "
            f"R^2 {self.r2_fitted:.3f} (ref {self.r2_reference:.3f}) "
            f"— {verdict}"
        )


def drift(
    fitted: LinearPerfModel,
    reference: LinearPerfModel,
    slope_tol: float = 0.25,
) -> ModelDrift:
    """Quantify how far a fitted model sits from its stored reference."""
    if slope_tol < 0:
        raise CalibrationError("slope_tol must be non-negative")
    return ModelDrift(
        slope_delta_frac=(
            (fitted.slope_us_per_cell - reference.slope_us_per_cell)
            / reference.slope_us_per_cell
        ),
        intercept_delta_us=fitted.intercept_us - reference.intercept_us,
        r2_fitted=fitted.r2,
        r2_reference=reference.r2,
        slope_tol=slope_tol,
    )
