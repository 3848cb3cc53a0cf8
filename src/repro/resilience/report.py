"""Run report of a resilient forecast: what was produced, at what cost.

The operational contract is that a forecast is *always* produced; the
report is where honesty lives — every degradation, rollback and injected
fault that shaped the result is recorded, so a downstream consumer can
tell a pristine forecast from a coarsened or shortened one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import guards
from repro.obs.log import RunEvents, ServiceEvent, counted


@dataclass
class ForecastReport:
    """Outcome of one resilient forecast run."""

    status: str  # "complete" | "degraded"
    horizon_s: float
    achieved_s: float
    deadline_s: float | None
    elapsed_s: float | None  # simulated wall-clock spent computing
    n_levels_initial: int
    n_levels_final: int
    output_every_final: int
    dt_final: float
    max_eta: float
    max_speed: float
    #: The run's records: its recovery, degradation and guard decisions.
    events: RunEvents = field(default_factory=RunEvents)
    faults_triggered: list[str] = field(default_factory=list)
    checkpoints_taken: int = 0
    #: Worst sentinel verdict over the run ("healthy" | "suspect" |
    #: "diverged"), or None when physics sampling was off.
    physics_verdict: str | None = None
    #: Sentinel summary (events, aborts, thresholds) when sampling ran.
    physics: dict | None = None
    #: End-of-run ABFT verdict ("clean" | "corrected" | "corrupted"),
    #: or None when the integrity layer was off.
    integrity_verdict: str | None = None
    #: Integrity ledger (checks, detections, corrections, scrub stats)
    #: in the ``integrity.json`` shape, when the layer ran.
    integrity: dict | None = None

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"

    @property
    def degradations(self) -> list[ServiceEvent]:
        return self.events.of("degradation")

    @property
    def recoveries(self) -> list[ServiceEvent]:
        return self.events.of("recovery")

    rollbacks = counted("rollback", "quarantine_rollback")

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"forecast status : {self.status.upper()}",
            f"horizon         : {self.achieved_s:.1f}s of "
            f"{self.horizon_s:.1f}s simulated",
        ]
        if self.deadline_s is not None:
            lines.append(
                f"deadline        : {self.elapsed_s:.1f}s used of "
                f"{self.deadline_s:.1f}s budget"
            )
        lines.append(
            f"fidelity        : {self.n_levels_final}/"
            f"{self.n_levels_initial} grid levels, output every "
            f"{self.output_every_final} step(s), dt={self.dt_final:g}s"
        )
        lines.append(
            f"products        : max eta {self.max_eta:.2f} m, "
            f"max speed {self.max_speed:.2f} m/s"
        )
        lines.append(
            f"recovery        : {self.checkpoints_taken} checkpoints, "
            f"{self.rollbacks} rollbacks"
        )
        for kind in guards.KINDS:
            verdict = kind.of(self)
            if verdict is not None:
                doc = getattr(self, kind.name, None) or {}
                lines.append(
                    f"{kind.name:<16}: verdict {verdict}{kind.brief(doc)}"
                )
        if self.faults_triggered:
            lines.append("faults triggered:")
            lines.extend(f"  - {label}" for label in self.faults_triggered)
        if self.degradations:
            lines.append("degradations:")
            lines.extend(
                f"  - step {ev.fields['step']} (t={ev.t:.1f}s): {ev.kind} — "
                f"{ev.detail} (projected {ev.fields['projected_s']:.1f}s vs "
                f"deadline {ev.fields['deadline_s']:.1f}s)"
                for ev in self.degradations
            )
        if self.recoveries:
            lines.append("recovery events:")
            lines.extend(
                f"  - step {ev.fields['step']}: {ev.kind} — {ev.detail}"
                for ev in self.recoveries
            )
        return "\n".join(lines)
