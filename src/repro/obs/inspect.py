"""Run inspection: summarize a run directory from its telemetry.

``repro inspect <rundir>`` reads the three artifacts a traced run leaves
behind — the write-ahead journal (``journal.jsonl``), the Chrome trace
(``trace.json``) and the metrics snapshot (``metrics.json``) — and
renders the paper's performance-accounting views for a *real* run:

* a per-rank, per-phase breakdown table (the Fig. 3/8 stacked bars),
  built by folding trace spans into the same
  :class:`~repro.runtime.breakdown.RankBreakdown` rows the offline
  performance replay produces — one accounting vocabulary for both;
* the top-N slowest individual spans;
* the busy share of each member of the strip team, per kernel (the two
  lanes of a shared kernel call in the Chrome trace, as numbers);
* the rank-imbalance ratio (slowest rank / mean rank, the Fig. 12–13
  load-balance metric);
* deadline/ETA accuracy: each degradation decision's projected finish
  versus the elapsed time the run actually recorded.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro import guards
from repro.artifacts import load_json_artifact, rejecting_malformed
from repro.errors import PersistError
from repro.obs.log import ROLLBACK_KINDS
from repro.obs.metrics import METRICS_SCHEMA, get_registry
from repro.persist.store import run_status
from repro.runtime.breakdown import (
    BREAKDOWN_PHASES,
    PhaseTime,
    RankBreakdown,
    format_breakdown_table,
)

TRACE_NAME = "trace.json"
METRICS_NAME = "metrics.json"


@dataclass
class RunArtifacts:
    """Everything inspectable found in one run directory."""

    rundir: Path
    events: list[dict] = field(default_factory=list)
    journal_warning: str | None = None
    spans: list[dict] = field(default_factory=list)
    metrics: dict | None = None


def load_rundir(rundir) -> RunArtifacts:
    """Load whatever telemetry the run directory holds (all optional)."""
    rundir = Path(rundir)
    if not rundir.is_dir():
        raise PersistError(f"{rundir} is not a run directory")
    art = RunArtifacts(rundir)

    journal = rundir / "journal.jsonl"
    if journal.exists():
        from repro.persist.journal import read_journal

        art.events, art.journal_warning = read_journal(journal)

    trace_path = rundir / TRACE_NAME
    if trace_path.exists():
        doc = load_json_artifact(trace_path, what="a Chrome trace")
        with rejecting_malformed(trace_path):
            art.spans = [
                {
                    "name": ev.get("name"),
                    "cat": ev.get("cat", ""),
                    "rank": (ev.get("args") or {}).get("rank"),
                    "ts_us": ev.get("ts", 0.0),
                    "dur_us": ev.get("dur", 0.0),
                    # Keep the args: the calibration path reads per-block
                    # cell counts out of <routine>.kernel spans.
                    "args": ev.get("args") or {},
                }
                for ev in doc["traceEvents"]
                if ev.get("ph") == "X"
            ]

    metrics_path = rundir / METRICS_NAME
    if metrics_path.exists():
        art.metrics = load_json_artifact(
            metrics_path, METRICS_SCHEMA, "a metrics snapshot"
        )
    return art


# ---------------------------------------------------------------------------
# Span folding — obs feeds runtime.breakdown
# ---------------------------------------------------------------------------


def breakdowns_from_spans(spans: list[dict]) -> list[RankBreakdown]:
    """Fold phase spans into per-rank :class:`RankBreakdown` totals.

    Spans named after :data:`BREAKDOWN_PHASES` accumulate into their
    phase's busy time; spans from threads with no bound rank fold into
    rank 0 (the single-process model).
    """
    per_rank: dict[int, RankBreakdown] = {}
    for s in spans:
        name = s.get("name")
        if name not in BREAKDOWN_PHASES:
            continue
        rank = s.get("rank")
        rank = 0 if rank is None else int(rank)
        bd = per_rank.get(rank)
        if bd is None:
            bd = per_rank[rank] = RankBreakdown(rank)
        pt = bd.phases[name]
        bd.phases[name] = PhaseTime(
            busy_us=pt.busy_us + float(s.get("dur_us", 0.0)),
            wait_us=pt.wait_us,
        )
    return [per_rank[r] for r in sorted(per_rank)]


def imbalance_ratio(breakdowns: list[RankBreakdown]) -> float:
    """Slowest rank over mean rank (1.0 = perfectly balanced)."""
    totals = [bd.step_us for bd in breakdowns]
    if not totals or not any(totals):
        return 1.0
    return max(totals) / statistics.fmean(totals)


def team_busy(spans: list[dict]) -> dict[str, dict[int, float]]:
    """Per kernel, the share of its wall each member of the strip team was
    inside strips (:func:`repro.core.scratch.each_strip`): member *k*'s
    ``cat="team"`` spans over the kernel's ``<kernel>.kernel`` spans.  The
    rest of a member's share is the serial part of a call (ghost carry-over,
    waking and waiting) and calls of one strip; no entry for a kernel whose
    calls were never shared.
    """
    busy: dict[str, dict[int, float]] = {}
    wall: dict[str, float] = {}
    for s in spans:
        name, dur = s.get("name") or "", float(s.get("dur_us", 0.0))
        if s.get("cat") == "team":
            member = int((s.get("args") or {}).get("member", 0))
            per = busy.setdefault(name.removesuffix(".strips"), {})
            per[member] = per.get(member, 0.0) + dur
        else:
            wall[name] = wall.get(name, 0.0) + dur
    out = {}
    for kernel, per in busy.items():
        total = wall.get(kernel + ".kernel")
        if total:
            out[kernel] = {k: per[k] / total for k in sorted(per)}
    return out


def top_spans(spans: list[dict], n: int = 10) -> list[dict]:
    """The *n* individually slowest spans (phase and nested alike)."""
    return sorted(
        (s for s in spans if s.get("dur_us", 0.0) > 0.0),
        key=lambda s: s["dur_us"],
        reverse=True,
    )[:n]


# ---------------------------------------------------------------------------
# ETA / deadline accounting
# ---------------------------------------------------------------------------


def eta_summary(events: list[dict]) -> list[str]:
    """Deadline-supervisor accuracy lines from journal events."""
    start = next(
        (ev for ev in events if ev.get("event") == "run_start"), None
    )
    done = next((ev for ev in events if ev.get("event") == "complete"), None)
    lines: list[str] = []
    if start is None:
        return lines
    deadline = start.get("deadline_s")
    if deadline is None:
        lines.append("deadline        : none (no supervisor)")
        return lines
    lines.append(f"deadline        : {float(deadline):.1f} s budget")
    if done is not None and done.get("elapsed_s") is not None:
        elapsed = float(done["elapsed_s"])
        verdict = "met" if elapsed <= float(deadline) else "MISSED"
        lines.append(
            f"elapsed (sim)   : {elapsed:.1f} s — deadline {verdict}"
        )
        for ev in events:
            if ev.get("event") != "degradation":
                continue
            proj = ev.get("projected_s")
            if proj is None:
                continue
            err = float(proj) - elapsed
            lines.append(
                f"  step {ev.get('step', '?')}: {ev.get('action')} at "
                f"projected {float(proj):.1f} s "
                f"(ETA error {err:+.1f} s vs actual finish)"
            )
    degr = sum(1 for ev in events if ev.get("event") == "degradation")
    if degr:
        lines.append(f"degradations    : {degr}")
    return lines


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


def _status_lines(art: RunArtifacts) -> list[str]:
    lines = [f"run directory   : {art.rundir}"]
    if art.journal_warning:
        lines.append(f"journal warning : {art.journal_warning}")
    names = [ev.get("event") for ev in art.events]
    if not names:
        lines.append("journal         : none")
    else:
        status, refusal = run_status(art.events)
        if status != "complete":
            status = "interrupted" if "interrupted" in names else "incomplete"
            if refusal is None:
                status += " (resumable)"
        lines.append(f"journal         : {len(names)} events, run {status}")
        ckpts = names.count("checkpoint")
        if ckpts:
            lines.append(f"checkpoints     : {ckpts} published")
        rollbacks = sum(
            1
            for ev in art.events
            if ev.get("event") == "recovery"
            and ev.get("kind") in ROLLBACK_KINDS
        )
        if rollbacks:
            lines.append(f"rollbacks       : {rollbacks}")
    return lines


def _metrics_lines(metrics: dict) -> list[str]:
    lines: list[str] = []
    gauges = metrics.get("gauges", {})
    counters = metrics.get("counters", {})
    sps = gauges.get("repro_steps_per_second")
    if sps:
        lines.append(f"throughput      : {sps:,.1f} steps/s")
    cps = gauges.get("repro_cells_per_second")
    if cps:
        lines.append(f"                  {cps:,.0f} cell-updates/s")
    halo = counters.get("repro_halo_bytes_total")
    if halo:
        lines.append(f"halo traffic    : {halo:,.0f} bytes")
    steps = counters.get("repro_steps_total")
    if steps:
        lines.append(f"steps           : {steps:,.0f}")
    ran = metrics.get("kernel_executor") or {}
    if ran.get("executor"):
        how = f"fell back: {ran['reason']}" if ran.get("reason") else ran.get("compiler")
        line = f"kernel executor : {ran['executor']} ({how})"
        if ran.get("launches"):  # equal counts: fresh array objects on every call
            line += f", {ran['prepared']:,} calls prepared, {ran['launches']:,} launches"
        lines.append(line)
        for name, n in (ran.get("routines") or {}).items():  # which routine re-prepares
            if n["launches"]:
                lines.append(f"  {name:<14}: {n['prepared']:,} prepared, {n['launches']:,} launches")
    return lines


def render_report(art: RunArtifacts, top_n: int = 10) -> str:
    """Render the inspection report for already-loaded artifacts."""
    sections: list[str] = []
    sections.append("\n".join(_status_lines(art)))

    if art.metrics:
        lines = _metrics_lines(art.metrics)
        if lines:
            sections.append("\n".join(lines))

    eta = eta_summary(art.events)
    if eta:
        sections.append("\n".join(eta))

    if art.spans:
        bds = breakdowns_from_spans(art.spans)
        if bds:
            ratio = imbalance_ratio(bds)
            get_registry().gauge(
                "repro_rank_imbalance_ratio",
                "max/mean rank time of the last inspected/re-tuned run",
            ).set(ratio)
            sections.append(
                "phase breakdown (cumulative us per rank):\n"
                + format_breakdown_table(bds)
                + f"\nrank imbalance  : {ratio:.3f}x "
                "(slowest rank / mean rank)"
            )
        from repro.obs.critpath import analyze_spans

        path = analyze_spans(art.spans)
        if path is not None:
            sections.append(path.summary())
        team = team_busy(art.spans)
        if team:
            sections.append("\n".join(
                ["strip team (share of the kernel's wall inside strips, "
                 "per member):"]
                + [f"  {kernel:<8}" + "".join(
                    f"  member {k}: {share:.2f}" for k, share in per.items())
                   for kernel, per in team.items()]
            ))
        slow = top_spans(art.spans, top_n)
        if slow:
            lines = [f"top {len(slow)} slowest spans:"]
            for s in slow:
                rank = s.get("rank")
                who = f" rank {rank}" if rank is not None else ""
                lines.append(
                    f"  {s['dur_us']:>12.1f} us  {s['name']}"
                    f" [{s.get('cat', '')}]" + who
                )
            sections.append("\n".join(lines))
    else:
        sections.append(
            "no trace.json — re-run with `repro forecast --export-trace` "
            "to record spans"
        )
    return "\n\n".join(sections)


def inspect_guard(rundir, kind: guards.GuardKind) -> tuple[str, bool]:
    """Render one guard's artifact: the ``repro inspect --<name>`` view.

    Returns ``(text, ok)``; *ok* is False exactly when the verdict is
    the kind's worst level, so callers can gate on it.  Raises
    :class:`~repro.errors.PersistError` when the run never armed the
    guard (resilient forecasts and soaks do) or left a damaged artifact.
    """
    path = Path(rundir) / kind.artifact
    if not path.exists():
        raise PersistError(
            f"no {kind.artifact} under {rundir}; the {kind.title} guard "
            "was off for this run"
        )
    with rejecting_malformed(path):
        lines, ok = kind.render(kind.load(path))
    return "\n".join(lines), ok


#: The per-artifact names: :func:`inspect_guard` with the kind bound.
inspect_physics = partial(inspect_guard, kind=guards.PHYSICS)
inspect_integrity = partial(inspect_guard, kind=guards.INTEGRITY)


def inspect_request(rundir, request_id: str) -> str:
    """Render one request's flight-recorder timeline from a run directory.

    The ``repro inspect --request <id>`` view: loads
    ``flight/<request_id>.json`` (dumped by the service on shed,
    failure, or deadline breach) and renders the bounded event ring —
    the post-mortem for *that* request rather than the aggregate run.
    """
    from repro.obs.flight import flight_path, load_flight, render_flight

    path = flight_path(rundir, request_id)
    if not path.exists():
        flight_dir = path.parent
        have = (
            sorted(p.stem for p in flight_dir.glob("*.json"))
            if flight_dir.is_dir() else []
        )
        hint = (
            "recorded requests: " + ", ".join(have)
            if have else "no flight recordings in this run directory "
            "(only bad endings are dumped)"
        )
        raise PersistError(
            f"no flight recording for {request_id!r} under {flight_dir}; "
            + hint
        )
    with rejecting_malformed(path):
        return render_flight(load_flight(path))
