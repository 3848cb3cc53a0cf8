"""Admission cost model and completion projection.

Admission control needs an answer to one question *before* any compute
is spent: "if we accept this request, when will it finish?"  The answer
comes from the same empirical cost model the load balancer uses — the
Fig.-5 linear kernel model ``t = slope * cells + intercept``
(:mod:`repro.balance.perfmodel`) — priced over the scenario's per-block
cell counts for the Fig.-2 pipeline (NLMASS + two NLMNT2 sweeps +
OUTPUT), divided across the platform's asynchronous queues, and folded
with the exchange overhead.

Because any static model drifts, the estimator **self-calibrates
live**: every completed request reports its observed cost, and an EWMA
of observed/predicted scales all future estimates (the same
closed-loop idea as ``repro retune``, at service granularity).

:func:`project_schedule` turns per-request cost estimates into
projected completion times via EDF list scheduling over the worker
pool — the projection the admission controller checks against each
request's deadline.
"""

from __future__ import annotations

import functools
import json
import math
from contextlib import contextmanager

from repro.errors import ReproError, ServiceError
from repro.service.request import Fidelity

#: Kernel launches per block per step, before output accumulation
#: (NLMASS + NLMNT2 x-sweep + NLMNT2 y-sweep).
_KERNELS_PER_BLOCK = 3


@contextmanager
def _refusing():
    """A scenario the scenario builder refuses is a ServiceError here."""
    try:
        yield
    except (ReproError, TypeError, ValueError, OverflowError) as exc:
        raise ServiceError(f"scenario refused: {exc}") from exc


@functools.lru_cache(maxsize=64)
def _grid_cells(grid_json: str) -> tuple[tuple[int, ...], ...]:
    from repro.persist.scenario import build_grid

    grid = build_grid(json.loads(grid_json))
    return tuple(tuple(b.n_cells for b in lv.blocks) for lv in grid.levels)


def scenario_cells_by_level(scenario: dict) -> list[list[int]]:
    """Per-level block cell counts of a scenario's grid.

    Synthetic scenarios (the soak harness) carry ``cells_by_level``
    inline; any other scenario's grid is built (once per process) by
    :func:`repro.persist.scenario.build_grid`.
    """
    with _refusing():
        if "cells_by_level" in scenario:
            cells = [[int(c) for c in lv] for lv in scenario["cells_by_level"]]
            if not cells or any(not level for level in cells):
                raise ServiceError("cells_by_level must be non-empty per level")
            return cells
        grid = json.dumps(scenario.get("grid", "mini-kochi"), sort_keys=True)
        return [list(level) for level in _grid_cells(grid)]


def _steps(scenario: dict) -> int:
    from repro.persist.scenario import build_config

    with _refusing():
        return build_config(scenario).n_steps


def check_scenario(scenario: dict) -> None:
    """Raise :class:`~repro.errors.ServiceError` for a spec no backend runs.

    A spec must build through :func:`repro.persist.scenario.
    build_scenario` — the spec ``repro validate`` checks; a synthetic one
    (inline ``cells_by_level``, priced but never built) must price.
    """
    from repro.persist.scenario import build_scenario

    if "cells_by_level" in scenario:
        scenario_cells_by_level(scenario)
        _steps(scenario)
    else:
        with _refusing():
            build_scenario(scenario)


class CostEstimator:
    """Prices a scenario at a fidelity; self-calibrates from outcomes.

    Parameters
    ----------
    model:
        A :class:`~repro.balance.perfmodel.LinearPerfModel`; defaults to
        the platform's stored reference model (lazily microbenchmarked
        for platforms without a published fit).
    platform:
        Table-II system name; also names the cache/breaker scope.
    alpha:
        EWMA weight of each new observed/predicted ratio.
    """

    def __init__(
        self,
        model=None,
        platform: str = "squid-gpu",
        n_queues: int = 4,
        comm_overhead: float = 1.25,
        alpha: float = 0.3,
    ) -> None:
        if model is None:
            from repro.hw import get_system
            from repro.hw.registry import platform_key_of, reference_model_for

            spec = get_system(platform).platform
            key = platform_key_of(spec)
            if key is None:
                from repro.balance.apply import fit_platform_model

                model = fit_platform_model(spec)
            else:
                model = reference_model_for(key)
        self.model = model
        self.platform = platform
        self.n_queues = max(1, int(n_queues))
        self.comm_overhead = comm_overhead
        self.alpha = alpha
        #: Live EWMA of observed/predicted cost; 1.0 = model is exact.
        self.calibration = 1.0
        self.observations = 0

    # -- pricing ---------------------------------------------------------

    def step_cost_s(
        self, cells_by_level: list[list[int]], with_outputs: bool
    ) -> float:
        """Eq.-5 cost of one step over all blocks, queue-parallelized."""
        kernels = _KERNELS_PER_BLOCK + (1 if with_outputs else 0)
        total_us = sum(
            kernels * self.model.kernel_time_us(c)
            for level in cells_by_level
            for c in level
        )
        return total_us / self.n_queues * self.comm_overhead * 1e-6

    def estimate_raw_s(
        self, scenario: dict, fidelity: Fidelity = Fidelity()
    ) -> float:
        """Uncalibrated cost of running *scenario* at *fidelity* [s]."""
        cells = scenario_cells_by_level(scenario)
        kept = max(1, len(cells) - fidelity.levels_dropped)
        cells = cells[:kept]
        n_steps = max(
            1, math.ceil(_steps(scenario) * fidelity.horizon_frac)
        )
        base = self.step_cost_s(cells, with_outputs=False)
        with_out = self.step_cost_s(cells, with_outputs=True)
        output_steps = n_steps / max(1, fidelity.output_every)
        return n_steps * base + output_steps * (with_out - base)

    def estimate_s(
        self, scenario: dict, fidelity: Fidelity = Fidelity()
    ) -> float:
        """Calibrated cost estimate [s]."""
        return self.estimate_raw_s(scenario, fidelity) * self.calibration

    def max_levels_droppable(self, scenario: dict) -> int:
        return max(0, len(scenario_cells_by_level(scenario)) - 1)

    # -- live calibration ------------------------------------------------

    def observe(self, raw_predicted_s: float, actual_s: float) -> None:
        """Fold one completed request's observed cost into the EWMA."""
        if raw_predicted_s <= 0 or actual_s <= 0:
            return
        ratio = actual_s / raw_predicted_s
        self.calibration = (
            (1.0 - self.alpha) * self.calibration + self.alpha * ratio
        )
        # Never let a pathological observation (a hung or instantly
        # failing backend) swing future admissions by more than 10x.
        self.calibration = min(10.0, max(0.1, self.calibration))
        self.observations += 1


def project_schedule(
    now: float, worker_avail: list[float], entries: list
) -> list[tuple[object, float]]:
    """EDF list-scheduling projection of queued work onto the workers.

    *worker_avail* holds each worker's estimated next-free time (``now``
    for idle workers, start + estimated cost for busy ones).  *entries*
    must be in EDF order and expose ``est_s``.  Returns ``(entry,
    projected_finish)`` pairs; the admission controller compares each
    projection against that entry's margin-shrunk deadline.
    """
    avail = sorted(float(t) for t in worker_avail)
    if not avail:
        raise ServiceError("projection needs at least one worker")
    out = []
    for entry in entries:
        i = min(range(len(avail)), key=avail.__getitem__)
        start = max(now, avail[i])
        finish = start + entry.est_s
        avail[i] = finish
        out.append((entry, finish))
    return out
