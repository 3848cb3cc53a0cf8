"""Critical-path analytics over recorded spans: *what bounds the wall clock?*

In a traced ``RTiModel``/distributed run, wall time is attributed to
compute phases (``NLMASS``/``NLMNT2``/``OUTPUT``) versus halo-exchange
phases (``JNZ``/``PTP_Z``/``JNQ``/``PTP_MN``); the critical rank is the
one with the largest serial phase total, and its per-phase chain is the
longest dependency chain of the step pipeline (the phases are serial by
construction, Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.breakdown import BREAKDOWN_PHASES

#: Phase classification for attribution.
COMPUTE_PHASES = frozenset({"NLMASS", "NLMNT2", "OUTPUT"})
EXCHANGE_PHASES = frozenset({"JNZ", "PTP_Z", "JNQ", "PTP_MN"})


@dataclass
class RankPath:
    """One rank's attributed serial time."""

    rank: int | None
    compute_us: float = 0.0
    exchange_us: float = 0.0
    phase_us: dict[str, float] = field(default_factory=dict)

    @property
    def serial_us(self) -> float:
        return self.compute_us + self.exchange_us


@dataclass
class SpanPathReport:
    """Critical-path attribution of one traced run."""

    ranks: list[RankPath]
    critical: RankPath
    chain: list[tuple[str, float]]  # (phase, cumulative us), pipeline order
    extent_us: float  # first span start -> last span end

    @property
    def compute_fraction(self) -> float:
        s = self.critical.serial_us
        return self.critical.compute_us / s if s > 0 else 0.0

    def summary(self) -> str:
        c = self.critical
        who = "rank ?" if c.rank is None else f"rank {c.rank}"
        lines = [
            f"critical path   : {who} — {c.serial_us:,.1f} us serial "
            f"({self.compute_fraction * 100:.1f}% compute, "
            f"{(1 - self.compute_fraction) * 100:.1f}% halo exchange)"
        ]
        chain = " -> ".join(
            f"{name} {us:,.0f}us" for name, us in self.chain
        )
        if chain:
            lines.append(f"  chain: {chain}")
        return "\n".join(lines)


def analyze_spans(spans: list[dict]) -> SpanPathReport | None:
    """Attribute recorded phase spans; ``None`` when no phase spans exist.

    Accepts exported span dicts (``name``/``rank``/``dur_us``; the
    ``ts_us`` key is optional for the extent).  Spans from threads with
    no bound rank fold into rank 0, matching the breakdown folding.
    """
    per_rank: dict[int, RankPath] = {}
    t0, t1 = None, None
    for s in spans:
        ts = s.get("ts_us")
        if ts is not None:
            end = ts + s.get("dur_us", 0.0)
            t0 = ts if t0 is None else min(t0, ts)
            t1 = end if t1 is None else max(t1, end)
        name = s.get("name")
        if name not in BREAKDOWN_PHASES:
            continue
        rank = s.get("rank")
        rank = 0 if rank is None else int(rank)
        rp = per_rank.get(rank)
        if rp is None:
            rp = per_rank[rank] = RankPath(rank)
        dur = float(s.get("dur_us", 0.0))
        rp.phase_us[name] = rp.phase_us.get(name, 0.0) + dur
        if name in COMPUTE_PHASES:
            rp.compute_us += dur
        else:
            rp.exchange_us += dur
    if not per_rank:
        return None
    ranks = [per_rank[r] for r in sorted(per_rank)]
    critical = max(ranks, key=lambda rp: rp.serial_us)
    chain = [
        (p, critical.phase_us[p])
        for p in BREAKDOWN_PHASES
        if critical.phase_us.get(p, 0.0) > 0.0
    ]
    extent = (t1 - t0) if (t0 is not None and t1 is not None) else 0.0
    return SpanPathReport(
        ranks=ranks, critical=critical, chain=chain, extent_us=extent
    )
