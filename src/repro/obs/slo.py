"""SLO engine: declarative objectives, error budgets, burn-rate alerts.

The paper's promise is a *service-level* one — a forecast in time,
every time — so "is the service healthy" must be a machine-checked
statement, not a feeling about dashboards.  This module turns the
forecast service's per-request outcomes into that statement:

* an :class:`SLO` declares an objective as a good-event fraction over a
  tracked period (``availability: 99 % of admitted requests complete``,
  ``latency: 95 % of completions inside the margin deadline``,
  ``freshness: 90 % of completions at full fidelity``);
* the :class:`SLOEngine` ingests timestamped good/bad events on the
  service's virtual clock, tracks cumulative **error-budget**
  consumption, and evaluates **multi-window burn rates** — the
  SRE-standard fast (5 m / 1 h) and slow (30 m / 6 h) window pairs, in
  service seconds, each alerting only when *both* windows burn faster
  than the pair's factor (fast pages on sudden storms without flapping,
  slow catches slow leaks);
* results export three ways: ``repro_slo_*`` gauges in the metrics
  registry, an ``slo.json`` report under the run directory, and the
  ``repro slo`` CLI gate that exits non-zero on budget exhaustion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.artifacts import load_json_artifact, publish_json
from repro.obs.metrics import get_registry

#: Schema stamp of one ``slo.json`` report.
SLO_SCHEMA = "repro.obs.slo/1"


@dataclass(frozen=True)
class SLO:
    """One declarative objective: a target fraction of good events."""

    name: str
    description: str
    #: Good-event fraction promised, e.g. 0.99.
    target: float

    def __post_init__(self) -> None:
        if not 0 < self.target < 1:
            raise ValueError(
                f"SLO target must be in (0, 1), got {self.target}"
            )

    @property
    def budget(self) -> float:
        """Allowed bad fraction (the error budget), e.g. 0.01."""
        return 1.0 - self.target


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window burn-rate alert: both windows must burn."""

    label: str
    short_s: float
    long_s: float
    #: Burn-rate multiple of budget-at-steady-state that trips the alert.
    factor: float


#: Default objectives of the forecast service.
DEFAULT_SLOS: tuple[SLO, ...] = (
    SLO("availability",
        "admitted requests complete (neither shed nor failed)", 0.99),
    SLO("latency",
        "completions land inside their deadline", 0.95),
    SLO("freshness",
        "completions delivered at full fidelity", 0.90),
    SLO("validity",
        "completions carry a healthy physics verdict", 0.95),
    # The silent-data-corruption promise: a completion may be CLEAN or
    # CORRECTED, never CORRUPTED.  Only completions that carry an
    # integrity verdict feed this objective (``knows()`` + conditional
    # record), so a deployment with the ABFT layer off reports it
    # undefined — zero traffic, no burn — rather than vacuously green.
    SLO("integrity",
        "completions carry a clean-or-corrected integrity verdict", 0.95),
)

#: Objectives for the deliberate-overload soak.  A sustained 3x burst
#: is exactly the storm the operational SLOs would page on, so the soak
#: gates on a relaxed *overload envelope* instead: the service sheds a
#: couple percent of admitted work (availability ~98 % observed) and
#: converts fidelity into availability (~65–75 % full fidelity) — both
#: by design.  The envelope targets sit far enough below the observed
#: steady state that seed variance passes, and far enough above a real
#: failure mode (a breaker storm fails *most* requests) that breakage
#: still trips the gate.  The latency promise is unchanged: overload is
#: exactly when "accepted means on time" matters.
SOAK_SLOS: tuple[SLO, ...] = (
    SLO("availability",
        "admitted requests complete (overload envelope)", 0.95),
    DEFAULT_SLOS[1],
    SLO("freshness",
        "completions delivered at full fidelity (overload envelope)",
        0.40),
    # Overload must not shake the science: shedding converts fidelity,
    # never validity.  Only completions carrying a physics verdict feed
    # this objective, so a soak without verdicts reports it undefined
    # (no traffic) rather than burning.
    DEFAULT_SLOS[3],
    # Same story for integrity: load never excuses a silent wrong
    # answer, so the overload envelope keeps the operational target.
    DEFAULT_SLOS[4],
)

#: SRE-standard fast/slow multi-window pairs, in service seconds.
BURN_WINDOWS: tuple[BurnWindow, ...] = (
    BurnWindow("fast", short_s=300.0, long_s=3600.0, factor=14.4),
    BurnWindow("slow", short_s=1800.0, long_s=21600.0, factor=6.0),
)

#: Events each SLO keeps for its burn windows (totals count them all).
MAX_EVENTS = 200_000


@dataclass
class SLOStatus:
    """One objective's evaluated state at an instant."""

    name: str
    description: str
    target: float
    total: int
    good: int
    attainment: float
    #: Fraction of the cumulative error budget consumed (1.0 = spent).
    budget_consumed: float
    budget_remaining: float
    burn_rates: dict = field(default_factory=dict)
    alerts: list = field(default_factory=list)

    @property
    def bad(self) -> int:
        return self.total - self.good

    @property
    def exhausted(self) -> bool:
        return self.total > 0 and self.budget_remaining <= 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "target": self.target,
            "total": self.total,
            "good": self.good,
            "bad": self.bad,
            "attainment": self.attainment,
            "budget_consumed": self.budget_consumed,
            "budget_remaining": self.budget_remaining,
            "burn_rates": dict(self.burn_rates),
            "alerts": list(self.alerts),
            "exhausted": self.exhausted,
        }


@dataclass
class SLOReport:
    """All objectives evaluated at one instant of service time."""

    t: float
    statuses: list

    @property
    def exhausted(self) -> bool:
        return any(s.exhausted for s in self.statuses)

    @property
    def alerts(self) -> list[str]:
        return [
            f"{s.name}:{label}"
            for s in self.statuses
            for label in s.alerts
        ]

    def to_dict(self) -> dict:
        return {
            "schema": SLO_SCHEMA,
            "t": self.t,
            "slos": [s.to_dict() for s in self.statuses],
            "alerts": self.alerts,
            "exhausted": self.exhausted,
        }


class SLOEngine:
    """Ingests good/bad events; evaluates attainment, budgets, burn.

    Timestamps are whatever clock the caller lives on — the forecast
    service feeds virtual-clock seconds, so a soak evaluates hours of
    SLO history deterministically.  Event retention is bounded per SLO;
    cumulative totals are kept separately so attainment and budget
    consumption stay exact even after old events age out of the window
    buffer (the newest :data:`MAX_EVENTS` per SLO).
    """

    def __init__(self, slos: tuple[SLO, ...] | None = None) -> None:
        self.slos = tuple(slos if slos is not None else DEFAULT_SLOS)
        if not self.slos:
            raise ValueError("need at least one SLO")
        names = [s.name for s in self.slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        self._by_name = {s.name: s for s in self.slos}
        self._events: dict[str, deque] = {
            s.name: deque(maxlen=MAX_EVENTS) for s in self.slos
        }
        self._total: dict[str, int] = {s.name: 0 for s in self.slos}
        self._good: dict[str, int] = {s.name: 0 for s in self.slos}

    def knows(self, name: str) -> bool:
        """Whether objective *name* is declared on this engine.

        Conditional producers (e.g. the service's physics-validity
        feed) probe this instead of letting :meth:`record` raise, so an
        engine configured without the objective simply sees no events.
        """
        return name in self._by_name

    def record(self, name: str, t: float, good: bool) -> None:
        """One outcome for objective *name* at service time *t*."""
        if name not in self._by_name:
            raise ValueError(
                f"unknown SLO {name!r}; have {sorted(self._by_name)}"
            )
        self._events[name].append((float(t), bool(good)))
        self._total[name] += 1
        if good:
            self._good[name] += 1

    # -- evaluation ------------------------------------------------------

    def _window_bad_fraction(
        self, name: str, now: float, window_s: float
    ) -> float | None:
        """Bad fraction of events in ``(now - window_s, now]``.

        ``None`` when the window holds no events (no traffic is not an
        outage — burn is undefined, not infinite).
        """
        cutoff = now - window_s
        total = bad = 0
        for t, good in reversed(self._events[name]):
            if t < cutoff:
                break
            total += 1
            if not good:
                bad += 1
        if total == 0:
            return None
        return bad / total

    def burn_rate(
        self, name: str, now: float, window_s: float
    ) -> float | None:
        """Error-budget burn multiple over one sliding window.

        1.0 means the budget is being spent exactly at the sustainable
        rate; 14.4 over 5 minutes is the classic "page now" threshold.
        """
        frac = self._window_bad_fraction(name, now, window_s)
        if frac is None:
            return None
        return frac / self._by_name[name].budget

    def evaluate(self, now: float) -> SLOReport:
        statuses = []
        for slo in self.slos:
            total = self._total[slo.name]
            good = self._good[slo.name]
            bad = total - good
            attainment = good / total if total else 1.0
            allowed = slo.budget * total
            consumed = bad / allowed if allowed > 0 else 0.0
            burn_rates: dict[str, float] = {}
            alerts: list[str] = []
            for w in BURN_WINDOWS:
                b_short = self.burn_rate(slo.name, now, w.short_s)
                b_long = self.burn_rate(slo.name, now, w.long_s)
                if b_short is not None:
                    burn_rates[f"{w.label}_{_fmt_s(w.short_s)}"] = b_short
                if b_long is not None:
                    burn_rates[f"{w.label}_{_fmt_s(w.long_s)}"] = b_long
                if (
                    b_short is not None and b_long is not None
                    and b_short > w.factor and b_long > w.factor
                ):
                    alerts.append(w.label)
            statuses.append(SLOStatus(
                name=slo.name,
                description=slo.description,
                target=slo.target,
                total=total,
                good=good,
                attainment=attainment,
                budget_consumed=consumed,
                budget_remaining=1.0 - consumed,
                burn_rates=burn_rates,
                alerts=alerts,
            ))
        return SLOReport(t=now, statuses=statuses)

    # -- export ----------------------------------------------------------

    def export_gauges(self, now: float, registry=None) -> SLOReport:
        """Evaluate and publish ``repro_slo_*`` gauges; returns report."""
        if registry is None:
            registry = get_registry()
        report = self.evaluate(now)
        for s in report.statuses:
            labels = {"slo": s.name}
            registry.gauge(
                "repro_slo_attainment",
                "good-event fraction since tracking began",
                labels=labels,
            ).set(s.attainment)
            registry.gauge(
                "repro_slo_target", "declared objective", labels=labels,
            ).set(s.target)
            registry.gauge(
                "repro_slo_error_budget_remaining",
                "1 - consumed fraction of the cumulative error budget",
                labels=labels,
            ).set(s.budget_remaining)
            for label, rate in s.burn_rates.items():
                registry.gauge(
                    "repro_slo_burn_rate",
                    "error-budget burn multiple per sliding window",
                    labels={"slo": s.name, "window": label},
                ).set(rate)
            registry.gauge(
                "repro_slo_burn_alert",
                "1 when a multi-window burn alert is firing",
                labels=labels,
            ).set(1.0 if s.alerts else 0.0)
        return report

    def write_json(self, path, now: float) -> Path:
        """Atomically publish the ``slo.json`` report."""
        return publish_json(
            path, self.evaluate(now).to_dict(), indent=2, sort_keys=True
        )


def _fmt_s(seconds: float) -> str:
    """Compact window label: 300 -> '5m', 21600 -> '6h'."""
    seconds = float(seconds)
    if seconds % 3600 == 0:
        return f"{int(seconds // 3600)}h"
    if seconds % 60 == 0:
        return f"{int(seconds // 60)}m"
    return f"{seconds:g}s"


def load_slo_report(path) -> dict:
    """Load and sanity-check one ``slo.json`` report."""
    return load_json_artifact(path, SLO_SCHEMA, "an SLO report")


def render_slo_doc(doc: dict) -> tuple[list[str], bool]:
    """Render a loaded ``slo.json``; returns ``(lines, ok)``.

    *ok* is False exactly when some objective's error budget is
    exhausted — the condition the ``repro slo`` CLI gate (and CI) exits
    non-zero on.  Burn-rate alerts alone warn but do not fail the gate:
    they are leading indicators, exhaustion is the broken promise.
    """
    lines = [f"SLO report at t={doc.get('t', 0.0):g}s (service time)"]
    ok = True
    for s in doc.get("slos", []):
        verdict = "OK"
        if s.get("exhausted"):
            verdict = "BUDGET EXHAUSTED"
            ok = False
        elif s.get("alerts"):
            verdict = "burning (" + ", ".join(s["alerts"]) + ")"
        lines.append(
            f"  {s['name']:<13} {s['attainment'] * 100:7.3f}% of "
            f"{s['total']} events (target {s['target'] * 100:g}%) — "
            f"budget {max(0.0, s['budget_remaining']) * 100:.1f}% left "
            f"— {verdict}"
        )
        lines.append(f"    {s.get('description', '')}")
        burns = s.get("burn_rates") or {}
        if burns:
            lines.append(
                "    burn: " + "  ".join(
                    f"{k}={v:.2f}x" for k, v in sorted(burns.items())
                )
            )
    if not doc.get("slos"):
        lines.append("  (no objectives evaluated)")
    lines.append(
        "verdict: " + ("all error budgets intact" if ok
                       else "error budget exhausted — failing the gate")
    )
    return lines, ok
