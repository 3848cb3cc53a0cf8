"""Exporter: the Chrome trace-event JSON of a run.

The Chrome trace-event format (loadable in Perfetto or
``chrome://tracing``) shows the **live spans** of the
:mod:`repro.obs.trace` tracer — a real ``RTiModel``/``run_distributed``
execution, one track per rank — beside the service's decisions and the
physics counters, each on a ``pid`` of its own.
"""

from __future__ import annotations

from pathlib import Path

from repro.artifacts import publish_json
from repro.hw.streams import queue_occupancy  # noqa: F401 - re-exported
from repro.obs.timebase import TIMEBASE
from repro.obs.trace import Tracer, get_tracer


def chrome_trace_events(spans: list[dict]) -> list[dict]:
    """Convert exported span dicts into Chrome ``traceEvents``.

    Spans become complete (``"ph": "X"``) events; zero-duration spans
    become instants (``"ph": "i"``).  The track (``tid``) is the rank
    when one is bound, else the raw thread id; all ranks share
    ``pid = 0``.
    """
    events: list[dict] = []
    for s in spans:
        rank = s.get("rank")
        tid = rank if rank is not None else s.get("tid", 0)
        ev = {
            "name": s["name"],
            "cat": s.get("cat", "span"),
            "pid": 0,
            "tid": tid,
            "ts": s["ts_us"],
        }
        args = dict(s.get("args") or {})
        if rank is not None:
            args.setdefault("rank", rank)
        # Trace context rides in the args: Perfetto queries can then
        # reassemble one request's tree across rank tracks by trace_id.
        for key in ("trace_id", "span_id", "parent_id"):
            if s.get(key) is not None:
                args[key] = s[key]
        if args:
            ev["args"] = args
        if s.get("dur_us", 0.0) > 0.0:
            ev["ph"] = "X"
            ev["dur"] = s["dur_us"]
        else:
            ev["ph"] = "i"
            ev["s"] = "t"
        events.append(ev)
    return events


def service_events_to_chrome(
    service_events, pid: int = 2,
    pid_name: str = "service (virtual clock)",
) -> list[dict]:
    """Chrome instants from :class:`repro.obs.log.ServiceEvent`.

    Each request gets its own track (``tid``, assigned in first-seen
    order and named after the request id), and every decision —
    admit, degrade, shed, breaker trip, completion — lands on it as an
    instant (``"ph": "i"``), so in Perfetto the service's choices read
    inline above the rank spans they caused.  Timestamps are the
    service's *virtual* clock seconds scaled to microseconds, kept on a
    separate ``pid`` so the two time axes don't visually interleave.
    """
    events: list[dict] = [
        {
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": pid_name},
        }
    ]
    tids: dict[str, int] = {}
    for ev in service_events:
        rid = ev.request_id
        tid = tids.get(rid)
        if tid is None:
            tid = tids[rid] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name", "ph": "M", "pid": pid,
                    "tid": tid, "args": {"name": rid},
                }
            )
        args = {"request_id": rid, "trace_id": rid}
        if ev.detail:
            args["detail"] = ev.detail
        events.append(
            {
                "name": ev.kind,
                "cat": "service",
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid,
                "ts": ev.t * 1e6,
                "args": args,
            }
        )
    return events


def physics_counter_events(
    physics_samples, pid: int = 3,
    pid_name: str = "physics (sim time)",
) -> list[dict]:
    """Chrome counter tracks (``"ph": "C"``) from physics samples.

    Each diagnostic becomes a counter series plotted over *simulated*
    seconds (scaled to microseconds), on its own ``pid`` like the
    service's virtual clock so the axes don't interleave with live
    spans.  Accepts :class:`repro.obs.physics.PhysicsSample` objects or
    the plain dicts a ``physics.json`` round-trips.
    """
    events: list[dict] = [
        {
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": pid_name},
        }
    ]
    for smp in physics_samples:
        s = smp if isinstance(smp, dict) else smp.to_dict()
        ts = s.get("time", 0.0) * 1e6
        for name, value in (
            ("physics:mass_drift", s.get("mass_drift", 0.0)),
            ("physics:cfl_margin", s.get("cfl_margin", 0.0)),
            ("physics:max_eta_m", s.get("max_eta", 0.0)),
            ("physics:wet_cells", s.get("wet_cells", 0)),
        ):
            events.append(
                {
                    "name": name,
                    "cat": "physics",
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "ts": ts,
                    "args": {"value": value},
                }
            )
    return events


def chrome_trace(
    tracer: Tracer | None = None,
    service_events=None,
    physics_samples=None,
) -> dict:
    """The full Chrome trace document for a run.

    A ``clock_sync`` metadata event carries the shared timebase's wall
    anchor so traces from a crashed run and its resume can be merged on
    the wall axis (see :mod:`repro.obs.timebase`).
    """
    tracer = tracer or get_tracer()
    events = [
        {
            "name": "clock_sync", "ph": "M", "pid": 0, "tid": 0,
            "args": {"wall_epoch_s": TIMEBASE.wall0},
        },
        {
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "repro (live spans)"},
        },
    ]
    events.extend(chrome_trace_events(tracer.export()))
    if service_events:
        events.extend(service_events_to_chrome(service_events))
    if physics_samples:
        events.extend(physics_counter_events(physics_samples))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, tracer: Tracer | None = None,
                       service_events=None, physics_samples=None) -> Path:
    """Atomically publish a Chrome trace JSON file; returns its path."""
    return publish_json(
        path,
        chrome_trace(tracer, service_events=service_events,
                     physics_samples=physics_samples),
    )
