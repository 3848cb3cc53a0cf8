"""Deterministic overload soak harness.

Drives a :class:`~repro.service.service.ForecastService` on the virtual
clock with seeded Poisson arrivals at a configurable multiple of the
service's steady-state capacity (3x by default — the "everything at
once" burst an operational tsunami service must survive), with a mixed
population of tenants, request classes, deadlines, and scenarios.  A
deliberately small scenario pool makes concurrent duplicates common, so
the single-flight cache is exercised under load, not just in unit
tests.

Everything is derived from one seed and the virtual clock, so a soak
run is bit-for-bit reproducible; the report asserts the service's
overload invariants (no accepted request misses its deadline silently,
queue depth stays bounded, low classes shed before high) and exports
the shed/latency/queue-depth metrics through :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro import guards
from repro.errors import ServiceOverloadError
from repro.obs.metrics import get_registry
from repro.service.backend import SimulatedBackend
from repro.service.request import CLASS_RANK, ForecastRequest
from repro.service.service import (
    DONE_OK,
    SHED,
    ForecastService,
    ServiceConfig,
    Ticket,
)

#: The soak's population: the class mix (mostly routine traffic, a critical
#: sliver), the tenants, the "hot" scenarios duplicates are drawn from, the
#: deadline budget's range as a multiple of a scenario's full-fidelity cost
#: and the simulated backend's cost noise.
CLASS_WEIGHTS = {
    "critical": 0.05,
    "high": 0.15,
    "normal": 0.5,
    "low": 0.3,
}
TENANTS = 4
SCENARIO_POOL = 8
DEADLINE_FACTOR = (2.0, 6.0)
BACKEND_NOISE = 0.1


@dataclass
class SoakConfig:
    """One seeded soak experiment."""

    duration_s: float = 3600.0
    #: Arrival rate as a multiple of steady-state capacity
    #: (workers / mean execution cost).
    rate_multiplier: float = 3.0
    seed: int = 0
    workers: int = 2
    queue_capacity: int = 24
    tenant_quota: int = 8
    #: Fraction of arrivals that re-request a hot-pool scenario (cache
    #: and single-flight traffic); the rest are unique scenarios.
    dup_fraction: float = 0.2
    #: Deterministic fraction of scenarios whose runs diverge; the
    #: simulated sentinel aborts those early (see
    #: :class:`~repro.service.backend.SimulatedBackend`).
    diverge_fraction: float = 0.0
    #: Deterministic fraction of runs hit by a simulated bit flip; most
    #: are caught and corrected, the rest complete with an explicit
    #: ``corrupted`` verdict (never silently — that is the invariant
    #: the injected nightly soak gates on).
    corrupt_fraction: float = 0.0


def synthetic_scenarios(rng: random.Random, n: int) -> list[dict]:
    """A pool of synthetic nested-grid scenarios of Kochi-like weight.

    Cell counts and step counts are scaled so a full-fidelity run costs
    tens of simulated seconds on the A100 cost model — the same order
    as the paper's operational six-hour forecast — so queueing, shedding
    and degradation dynamics are realistic, not instantaneous.
    """
    out = []
    for i in range(n):
        n_levels = rng.randint(2, 4)
        cells = []
        base = rng.choice([200_000, 400_000, 800_000])
        for lv in range(n_levels):
            blocks = rng.randint(2, 4)
            # Finer levels dominate the cell count, as in Table I.
            cells.append([base * (lv + 1) for _ in range(blocks)])
        out.append({
            "grid": f"synthetic-{i}",
            "cells_by_level": cells,
            "n_steps": rng.choice([3600, 7200, 10800]),
            "dt": 1.0,
            "source": {"type": "gaussian", "amplitude": 1.0 + i * 0.25},
        })
    return out


def poisson_arrivals(
    rng: random.Random, rate_per_s: float, duration_s: float
) -> list[float]:
    """Seeded homogeneous Poisson process on [0, duration)."""
    out, t = [], 0.0
    while True:
        t += rng.expovariate(rate_per_s)
        if t >= duration_s:
            return out
        out.append(t)


@dataclass
class SoakReport:
    """Outcome of one soak run, with the overload invariants checked."""

    config: SoakConfig
    submitted: int
    accepted: int
    rejected_by_reason: dict
    completed: int
    shed_by_class: dict
    cache: dict
    queue_peak_depth: int
    queue_capacity: int
    deadline_misses: list
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    degraded_results: int
    calibration: float
    final_time_s: float
    integrity_failures: list
    #: ``slo.json``-shaped SLO report when the soak ran with an engine.
    slo: dict | None = None
    #: Completions by guard kind name, then by verdict; a kind is absent
    #: when the backend attached no verdict of it.
    verdicts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            not self.deadline_misses
            and not self.integrity_failures
            and self.queue_peak_depth <= self.queue_capacity
        )

    def summary(self) -> str:
        rej = ", ".join(
            f"{k}={v}" for k, v in sorted(self.rejected_by_reason.items())
        ) or "none"
        shed = ", ".join(
            f"{k}={v}" for k, v in sorted(
                self.shed_by_class.items(),
                key=lambda kv: CLASS_RANK.get(kv[0], 9),
            )
        ) or "none"
        lines = [
            f"soak: {self.submitted} submitted over "
            f"{self.config.duration_s:g}s at "
            f"{self.config.rate_multiplier:g}x capacity "
            f"(seed {self.config.seed})",
            f"  accepted {self.accepted}, completed {self.completed} "
            f"({self.degraded_results} degraded), rejected: {rej}",
            f"  shed by class: {shed}",
            f"  latency p50/p95/p99: {self.latency_p50_s:.1f}/"
            f"{self.latency_p95_s:.1f}/{self.latency_p99_s:.1f} s",
            f"  queue depth peak {self.queue_peak_depth}/"
            f"{self.queue_capacity}, cache hits {self.cache['hits']} + "
            f"{self.cache['joins']} single-flight joins "
            f"({self.cache['misses']} runs)",
            f"  cost-model calibration {self.calibration:.3f} "
            f"after {self.submitted} requests",
            f"  deadline misses: {len(self.deadline_misses)}"
            + (f" {self.deadline_misses}" if self.deadline_misses else ""),
        ]
        for name, counts in self.verdicts.items():
            per = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            lines.append(f"  {name} verdicts: {per}")
        if self.integrity_failures:
            lines.append(
                f"  INTEGRITY FAILURES: {self.integrity_failures}"
            )
        if self.slo is not None:
            from repro.obs.slo import render_slo_doc

            lines.extend("  " + ln for ln in render_slo_doc(self.slo)[0])
        lines.append("  invariants: " + ("OK" if self.ok else "VIOLATED"))
        return "\n".join(lines)


def _quantile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(
        len(sorted_vals) - 1, max(0, math.ceil(q * len(sorted_vals)) - 1)
    )
    return sorted_vals[idx]


def run_soak(
    config: SoakConfig | None = None,
    backend=None,
    service: ForecastService | None = None,
    rundir=None,
    slo=None,
) -> SoakReport:
    """Run one seeded soak; returns the checked report.

    The service, backend, arrival process, and request mix are all
    derived from ``config.seed`` on the virtual clock — two runs with
    the same config are identical, including every shed decision.

    *rundir* makes the soak a fully inspectable run: flight recordings
    of bad endings land under ``<rundir>/flight/``, and after the drain
    the directory gets ``slo.json``, ``metrics.json``, and a
    ``trace.json`` whose service decisions ride as instant events.
    *slo* supplies a pre-configured :class:`repro.obs.slo.SLOEngine`;
    one with the default objectives is created when a service is built
    here (pass an explicitly constructed *service* to opt out).
    """
    from pathlib import Path

    config = config or SoakConfig()
    rng = random.Random(config.seed)
    if backend is None:
        backend = SimulatedBackend(
            noise=BACKEND_NOISE,
            diverge_fraction=config.diverge_fraction,
            corrupt_fraction=config.corrupt_fraction,
        )
    if service is None:
        if slo is None:
            from repro.obs.slo import SOAK_SLOS, SLOEngine

            slo = SLOEngine(slos=SOAK_SLOS)
        service = ForecastService(
            backend,
            ServiceConfig(
                workers=config.workers,
                queue_capacity=config.queue_capacity,
                tenant_quota=config.tenant_quota,
            ),
            estimator=getattr(backend, "estimator", None),
            slo=slo,
            flight_dir=(
                Path(rundir) / "flight" if rundir is not None else None
            ),
        )
    else:
        slo = slo if slo is not None else service.slo
    estimator = service.estimator

    scenarios = synthetic_scenarios(rng, SCENARIO_POOL)
    full_costs = [estimator.estimate_raw_s(s) for s in scenarios]
    mean_cost = sum(full_costs) / len(full_costs)
    capacity_rate = config.workers / mean_cost
    rate = config.rate_multiplier * capacity_rate

    classes, weights = list(CLASS_WEIGHTS), list(CLASS_WEIGHTS.values())
    arrivals = poisson_arrivals(rng, rate, config.duration_s)

    rejected: dict[str, int] = {}
    accepted: list[Ticket] = []
    for n_arr, t_arr in enumerate(arrivals):
        service.advance_to(t_arr)
        idx = rng.randrange(len(scenarios))
        if rng.random() < config.dup_fraction:
            scenario = scenarios[idx]  # hot scenario: dup traffic
        else:
            # Unique scenario: same weight class, distinct source, so
            # it cannot be served from the cache.
            scenario = dict(scenarios[idx])
            scenario["source"] = {
                "type": "gaussian",
                "amplitude": 1.0 + n_arr * 1e-3,
            }
        klass = rng.choices(classes, weights=weights)[0]
        deadline = full_costs[idx] * rng.uniform(*DEADLINE_FACTOR)
        request = ForecastRequest(
            scenario=scenario,
            deadline_s=deadline,
            tenant=f"tenant-{rng.randrange(TENANTS)}",
            klass=klass,
        )
        try:
            accepted.append(service.submit(request))
        except ServiceOverloadError as exc:
            name = type(exc).__name__
            rejected[name] = rejected.get(name, 0) + 1
    final_time = service.run_until_idle()

    # -- invariants ------------------------------------------------------
    integrity: list[str] = []
    latencies: list[float] = []
    misses: list[str] = []
    shed_by_class: dict[str, int] = {}
    tallies: dict[str, dict[str, int]] = {}
    verdict_requests: dict[str, list[dict]] = {}
    degraded = 0
    completed = 0
    unloaded = getattr(backend, "unloaded_payload", None)
    for ticket in service.tickets:
        if ticket.status == SHED:
            k = ticket.request.klass
            shed_by_class[k] = shed_by_class.get(k, 0) + 1
        if ticket.status not in (DONE_OK, "cached"):
            continue
        completed += 1
        flagged = False  # some guard gave this completion its worst verdict
        for kind in guards.KINDS:
            verdict = kind.of(ticket.result)
            if verdict is None:
                continue
            counts = tallies.setdefault(kind.name, {})
            counts[verdict] = counts.get(verdict, 0) + 1
            verdict_requests.setdefault(kind.name, []).append(
                {
                    "request_id": ticket.request.request_id,
                    "verdict": verdict,
                    "cost_s": getattr(ticket.result, "cost_s", None),
                    "deadline_s": ticket.request.deadline_s,
                }
            )
            flagged = flagged or verdict == kind.worst
        if ticket.latency_s is not None:
            latencies.append(ticket.latency_s)
        if ticket.deadline_met is False:
            misses.append(ticket.request.request_id)
        result = ticket.result
        if result is None:
            integrity.append(f"{ticket.request.request_id}: no result")
            continue
        if result.degraded:
            degraded += 1
        elif unloaded is not None:
            # Full-fidelity results must be bitwise identical to an
            # unloaded run of the same scenario — unless a guard
            # *declared* the run bad (its worst verdict), in which case
            # the wrong answer is expected and flagged; a differing
            # payload under any better verdict is the silent-corruption
            # failure.
            expect = unloaded(ticket.request.scenario)
            if result.payload != expect and not flagged:
                integrity.append(
                    f"{ticket.request.request_id}: payload differs "
                    "from unloaded run"
                )
    # Single-flight exactness: no scenario key may have run more often
    # than its distinct dispatch opportunities; with the simulated
    # backend we can assert "at most once per non-overlapping flight".
    runs_by_key = getattr(backend, "runs_by_key", None)

    latencies.sort()
    report = SoakReport(
        config=config,
        submitted=len(arrivals),
        accepted=len(accepted),
        rejected_by_reason=rejected,
        completed=completed,
        shed_by_class=shed_by_class,
        cache=service.cache.stats(),
        queue_peak_depth=service.queue.peak_depth,
        queue_capacity=service.queue.capacity,
        deadline_misses=misses,
        latency_p50_s=_quantile(latencies, 0.50),
        latency_p95_s=_quantile(latencies, 0.95),
        latency_p99_s=_quantile(latencies, 0.99),
        degraded_results=degraded,
        calibration=estimator.calibration,
        final_time_s=final_time,
        integrity_failures=integrity,
        verdicts=tallies,
    )
    reg = get_registry()
    reg.gauge(
        "repro_soak_rate_multiplier",
        "offered load as a multiple of steady-state capacity",
    ).set(config.rate_multiplier)
    reg.gauge(
        "repro_soak_final_time_seconds",
        "virtual time at which the soak drained",
    ).set(final_time)
    if runs_by_key:
        reg.gauge(
            "repro_soak_max_runs_per_key",
            "most executions any one scenario key needed",
        ).set(max(runs_by_key.values()))

    if slo is not None:
        report.slo = slo.export_gauges(final_time).to_dict()
    if rundir is not None:
        rundir = Path(rundir)
        rundir.mkdir(parents=True, exist_ok=True)
        if slo is not None:
            slo.write_json(rundir / "slo.json", final_time)
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(
            rundir / "trace.json", service_events=list(service.events)
        )
        reg.write_json(rundir / "metrics.json")
        for kind in guards.KINDS:
            counts = tallies.get(kind.name)
            if counts:
                kind.publish(
                    rundir / kind.artifact,
                    kind.doc(
                        verdict=kind.worst_of(counts),
                        counts=counts,
                        requests=verdict_requests[kind.name],
                    ),
                )
    return report
