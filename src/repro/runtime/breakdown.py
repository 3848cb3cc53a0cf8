"""Per-rank, per-routine runtime accounting (Figs. 3 and 8)."""

from __future__ import annotations

from dataclasses import dataclass, field

#: Stacked-bar categories of the paper's breakdown figures, in pipeline
#: order.
BREAKDOWN_PHASES: tuple[str, ...] = (
    "NLMASS",
    "JNZ",
    "PTP_Z",
    "NLMNT2",
    "JNQ",
    "PTP_MN",
    "OUTPUT",
)


@dataclass
class PhaseTime:
    """One phase's time on one rank, split into own work and waiting."""

    busy_us: float = 0.0
    wait_us: float = 0.0

    @property
    def total_us(self) -> float:
        return self.busy_us + self.wait_us


@dataclass
class RankBreakdown:
    """All phase times of one rank for one time step."""

    rank: int
    phases: dict[str, PhaseTime] = field(
        default_factory=lambda: {p: PhaseTime() for p in BREAKDOWN_PHASES}
    )

    @property
    def step_us(self) -> float:
        return sum(pt.total_us for pt in self.phases.values())

    def busy_us(self, phase: str) -> float:
        return self.phases[phase].busy_us

    def total_us(self, phase: str) -> float:
        return self.phases[phase].total_us


def format_breakdown_table(breakdowns: list[RankBreakdown]) -> str:
    """ASCII rendering of Fig. 3/8-style per-rank stacked times [us]."""
    head = f"{'rank':>4} " + " ".join(f"{p:>9}" for p in BREAKDOWN_PHASES)
    head += f" {'step':>9}"
    lines = [head]
    for bd in breakdowns:
        cells = " ".join(
            f"{bd.phases[p].total_us:>9.1f}" for p in BREAKDOWN_PHASES
        )
        lines.append(f"{bd.rank:>4} {cells} {bd.step_us:>9.1f}")
    return "\n".join(lines)
