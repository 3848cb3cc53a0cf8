"""What the ledger measures: workloads, end-to-end metrics, layer metrics.

This table is the single declaration the runner, ``compare.py``, the
README glossary and ``BENCHMARK.json`` agree on (``test_ledger.py``
checks the last one).  Each layer metric names the end-to-end metric it
should move and the workloads that exercise its layer; everywhere else
it reads ``n/a`` — never 0 — so "this layer did nothing here" and "this
layer got infinitely fast" cannot be confused.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

NESTED = "nested_forecast"
BASIN = "basin_large"
MOSAIC = "mosaic_2rank"
SERVICE = "service_mix"

#: name -> why this workload exists (one line, copied into BENCHMARK.json).
WORKLOADS: dict[str, str] = {
    NESTED: (
        "repro-forecast path on mini-Kochi: tiny kernels, so Python glue, "
        "nesting, in-process xchg and the default guards dominate"
    ),
    BASIN: (
        "one 768x768 block, no guards: core kernels and memory traffic are "
        "all of the time; glue/plan/guard changes must not show here"
    ),
    MOSAIC: (
        "4x2 mosaic of 128x128 blocks on 2 rank threads: the same xchg "
        "seams through pack/send/recv/unpack instead of direct ghost copy"
    ),
    SERVICE: (
        "closed loop, one client, half distinct scenarios and half exact "
        "repeats: misses run the whole stack, hits touch only the service"
    ),
}
ALL = frozenset(WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end: share of the parent's median it may worsen by.
    #: Layer metrics carry no bound.
    bound: float | None = None
    #: Layer metrics: the end-to-end metric (and workload) it should move.
    moves: str = ""
    #: Workloads on which the metric is defined; ``n/a`` elsewhere.
    workloads: frozenset = ALL
    #: Exact counts must repeat bit-for-bit between two runs of one seed.
    exact: bool = False

    @property
    def universal(self) -> bool:
        return self.workloads == ALL


#: The four end-to-end metrics defined (and never 0) on every workload —
#: the ones ``BENCHMARK.json`` gates.
E2E_GATED = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("solve_s_p50", "s", "lower", 0.25),
    Metric("cell_updates_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)
#: Printed and compared by the ledger itself but not in ``BENCHMARK.json``:
#: ``hit_ms_p50`` exists on one workload only and ``failure_rate`` is 0 by
#: construction (the driver reads it from ``attempted``/``failed``).
E2E_LEDGER_ONLY = (
    Metric("hit_ms_p50", "ms", "lower", 0.25, workloads=frozenset({SERVICE})),
    Metric("failure_rate", "ratio", "lower", 0.0),
)
E2E = E2E_GATED + E2E_LEDGER_ONLY

_STEPPED = frozenset({NESTED, BASIN, SERVICE})  # ops that run RTiModel.step
_NESTED = frozenset({NESTED, SERVICE})  # multi-level, guarded forecasts
_PAR = frozenset({MOSAIC})
_SVC = frozenset({SERVICE})
PHASES = ("NLMASS", "JNZ", "PTP_Z", "NLMNT2", "JNQ", "PTP_MN", "OUTPUT")


def _layer(name, unit, better, moves, workloads=ALL, exact=False) -> Metric:
    return Metric(name, unit, better, None, moves, frozenset(workloads), exact)


_SOLVE = "solve_s_p50"
PER_LAYER = (
    # -- core: direct calls on the workload's own block arrays ----------
    _layer("core.nlmass_ns_per_cell", "ns", "lower",
           f"{_SOLVE} on {BASIN} (about all of it); weaker elsewhere"),
    _layer("core.nlmnt2_ns_per_cell", "ns", "lower",
           f"{_SOLVE} on {BASIN} (about all of it); weaker elsewhere"),
    _layer("core.output_update_ns_per_cell", "ns", "lower",
           f"{_SOLVE} on {BASIN} and {NESTED}", _STEPPED),
    _layer("core.step_ms_p50", "ms", "lower",
           f"{_SOLVE} on {NESTED} and {BASIN}", _STEPPED),
    _layer("core.step_ms_p99", "ms", "lower",
           f"{_SOLVE} on {NESTED} and {BASIN}", _STEPPED),
    _layer("core.transient_bytes_per_step", "B", "lower",
           f"peak_rss_mb and {_SOLVE} on {BASIN}", _STEPPED),
    # -- step: the Fig.-2 phases from the program's own spans -----------
    *(
        _layer(f"step.phase_share.{p}", "ratio", "lower",
               f"{_SOLVE}; comm phases move {NESTED}/{MOSAIC} only")
        for p in PHASES
    ),
    _layer("step.kernel_share", "ratio", "higher",
           f"{_SOLVE}; near 1 on {BASIN}", _STEPPED),
    _layer("step.glue_share", "ratio", "lower",
           f"{_SOLVE} on {NESTED} (ROADMAP item 2: <0.10); flat on {BASIN}",
           _STEPPED),
    _layer("step.unattributed_share", "ratio", "lower",
           f"{_SOLVE}: step time no phase span covers"),
    # -- nesting / xchg --------------------------------------------------
    _layer("nesting.restrict_us_per_call", "us", "lower",
           f"{_SOLVE} on {NESTED} only", _NESTED),
    _layer("nesting.interp_us_per_call", "us", "lower",
           f"{_SOLVE} on {NESTED} only", _NESTED),
    _layer("xchg.exchange_halo_us_per_seam", "us", "lower",
           f"{_SOLVE} on {NESTED}", _NESTED),
    _layer("xchg.seam_specs_us_per_pair", "us", "lower",
           f"{_SOLVE} on {NESTED} (static geometry rebuilt every step)",
           _NESTED),
    _layer("xchg.pack_us_per_msg", "us", "lower",
           f"{_SOLVE} on {MOSAIC}", _PAR),
    _layer("xchg.unpack_us_per_msg", "us", "lower",
           f"{_SOLVE} on {MOSAIC}", _PAR),
    # -- par: counts and waits from the traced distributed op -----------
    _layer("par.msgs_per_step", "count", "lower",
           f"{_SOLVE} on {MOSAIC}", _PAR, exact=True),
    _layer("par.bytes_per_step", "B", "lower",
           f"{_SOLVE} on {MOSAIC}", _PAR, exact=True),
    _layer("par.recv_wait_share", "ratio", "lower",
           f"{_SOLVE} on {MOSAIC}", _PAR),
    _layer("par.rank_imbalance", "ratio", "lower",
           f"{_SOLVE} on {MOSAIC}", _PAR),
    _layer("par.speedup_vs_1rank", "ratio", "higher",
           f"{_SOLVE} on {MOSAIC}", _PAR),
    # -- guards ----------------------------------------------------------
    _layer("resilience.health_us_per_check", "us", "lower",
           f"{_SOLVE} on {NESTED} and {SERVICE} misses", _NESTED),
    _layer("obs.physics_us_per_sample", "us", "lower",
           f"{_SOLVE} on {NESTED} and {SERVICE} misses", _NESTED),
    _layer("resilience.checkpoint_us_per_snapshot", "us", "lower",
           f"{_SOLVE} on {NESTED} and {SERVICE} misses", _NESTED),
    _layer("resilience.checkpoint_bytes", "B", "lower",
           f"peak_rss_mb on {NESTED}", _NESTED, exact=True),
    _layer("resilience.integrity_us_per_check", "us", "lower",
           "informational: the integrity guard is off by default", _NESTED),
    _layer("resilience.guard_tax_ratio", "ratio", "lower",
           f"{_SOLVE} on {NESTED} and {SERVICE} misses", _NESTED),
    # -- service ---------------------------------------------------------
    _layer("service.backend_share", "ratio", "higher",
           f"{_SOLVE} on {SERVICE}", _SVC),
    _layer("service.overhead_us_p50", "us", "lower",
           f"hit_ms_p50 and {_SOLVE} on {SERVICE}", _SVC),
    _layer("service.admission_us", "us", "lower",
           f"hit_ms_p50 and {_SOLVE} on {SERVICE}", _SVC),
    _layer("service.forecast_setup_ms", "ms", "lower",
           f"{_SOLVE} on {SERVICE}", _SVC),
    _layer("service.cache_hit_ratio", "ratio", "higher",
           f"hit_ms_p50 on {SERVICE}", _SVC, exact=True),
    # -- setup / obs -----------------------------------------------------
    _layer("setup.import_ms", "ms", "lower", "setup_s"),
    _layer("setup.build_grid_ms", "ms", "lower", "setup_s"),
    _layer("setup.model_init_ms", "ms", "lower", "setup_s"),
    _layer("obs.trace_overhead_ratio", "ratio", "lower",
           "cost of observing: traced op / untraced op"),
)

BY_NAME = {m.name: m for m in E2E + PER_LAYER}


def quartiles(values) -> tuple[float, float, float]:
    """(p25, median, p75) the way the driver takes them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(metric: Metric, base: float, new: float) -> float:
    """Relative change of *new* against *base*; positive means worse."""
    rel = (new - base) / abs(base)
    return rel if metric.better == "lower" else -rel
