"""Unified telemetry: span tracing, metrics, structured logs, exporters.

``repro.obs`` is the single clock and accounting source for the stack:

* :mod:`~repro.obs.timebase` — one monotonic + wall-clock pair shared by
  journal events, trace spans, and log records;
* :mod:`~repro.obs.trace` — hierarchical span tracer instrumenting the
  Fig.-2 pipeline phases, halo exchanges, checkpoint writes, and
  recovery actions (no-op when disabled);
* :mod:`~repro.obs.metrics` — counters/gauges/histograms with Prometheus
  text export and a per-run ``metrics.json`` snapshot;
* :mod:`~repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) from live spans and from simulated
  :class:`~repro.hw.streams.KernelEvent` timelines, so measured and
  modeled schedules render in the same viewer;
* :mod:`~repro.obs.log` — structured JSONL logging with rank/step
  context;
* :mod:`~repro.obs.inspect` — the ``repro inspect <rundir>`` summarizer;
* :mod:`~repro.obs.flight` — per-request flight recorder: a bounded
  event ring per in-flight request, dumped on shed/failure/deadline
  breach and rendered by ``repro inspect --request <id>``;
* :mod:`~repro.obs.slo` — declarative service-level objectives with
  error-budget tracking and multi-window burn-rate alerts, gated by
  ``repro slo``;
* :mod:`~repro.obs.physics` — in-situ *solution* observability: the
  numerical-health sampler (mass drift, CFL margin, wet front, gauge
  anomalies) and the divergence sentinel that aborts doomed runs early,
  exported as ``repro_physics_*`` metrics, ``physics.json``, and Chrome
  counter tracks, rendered by ``repro inspect --physics``.

One switch arms the whole layer::

    import repro.obs as obs
    obs.enable()                # tracer + metrics collection on
    ...run a forecast...
    obs.export_run(rundir)      # trace.json + metrics.json in the rundir
"""

from __future__ import annotations

from pathlib import Path

from repro.obs import (
    critpath,
    flight,
    log,
    metrics,
    physics,
    slo,
    trace,
)
from repro.obs.critpath import analyze_queues, analyze_spans
from repro.obs.export import (
    chrome_trace,
    kernel_events_to_chrome,
    physics_counter_events,
    queue_occupancy,
    service_events_to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.flight import (
    FlightBook,
    FlightRecorder,
    flight_path,
    load_flight,
    render_flight,
)
from repro.obs.inspect import (
    breakdowns_from_spans,
    imbalance_ratio,
    inspect_integrity,
    inspect_physics,
    inspect_request,
    inspect_rundir,
    load_rundir,
    render_report,
    top_spans,
)
from repro.obs.physics import (
    DivergenceSentinel,
    PhysicsDivergenceError,
    PhysicsSampler,
    load_physics_report,
    physics_doc,
    render_physics_doc,
    write_physics_json,
)
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry, parse_prometheus
from repro.obs.slo import SLO, SLOEngine, load_slo_report, render_slo_doc
from repro.obs.timebase import TIMEBASE, mono_us, timestamp_pair
from repro.obs.trace import (
    TraceContext,
    Tracer,
    context,
    current_context,
    get_tracer,
    instant,
    set_context,
    span,
)


def enable() -> None:
    """Arm tracing and metrics collection for this process."""
    trace.enable()


def disable() -> None:
    trace.disable()


def is_enabled() -> bool:
    """Is the telemetry layer armed?  Hot paths gate on this."""
    return trace._TRACER.enabled


def reset() -> None:
    """Drop all collected spans and metrics (tests, fresh runs)."""
    trace.clear()
    get_registry().clear()


def export_run(
    rundir, kernel_events=None, physics_samples=None
) -> tuple[Path, Path]:
    """Write ``trace.json`` and ``metrics.json`` into *rundir*."""
    rundir = Path(rundir)
    rundir.mkdir(parents=True, exist_ok=True)
    trace_path = write_chrome_trace(
        rundir / "trace.json",
        kernel_events=kernel_events,
        physics_samples=physics_samples,
    )
    metrics_path = get_registry().write_json(rundir / "metrics.json")
    return trace_path, metrics_path


__all__ = [
    "TIMEBASE",
    "DivergenceSentinel",
    "FlightBook",
    "FlightRecorder",
    "MetricsRegistry",
    "PhysicsDivergenceError",
    "PhysicsSampler",
    "SLO",
    "SLOEngine",
    "TraceContext",
    "Tracer",
    "analyze_queues",
    "analyze_spans",
    "breakdowns_from_spans",
    "context",
    "critpath",
    "chrome_trace",
    "configure_logging",
    "current_context",
    "disable",
    "enable",
    "export_run",
    "flight",
    "flight_path",
    "get_logger",
    "get_registry",
    "get_tracer",
    "imbalance_ratio",
    "inspect_integrity",
    "inspect_physics",
    "inspect_request",
    "inspect_rundir",
    "instant",
    "is_enabled",
    "kernel_events_to_chrome",
    "load_flight",
    "load_physics_report",
    "load_rundir",
    "load_slo_report",
    "log",
    "metrics",
    "mono_us",
    "parse_prometheus",
    "physics",
    "physics_counter_events",
    "physics_doc",
    "queue_occupancy",
    "render_flight",
    "render_physics_doc",
    "render_report",
    "render_slo_doc",
    "reset",
    "service_events_to_chrome",
    "set_context",
    "slo",
    "span",
    "timestamp_pair",
    "top_spans",
    "trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_physics_json",
]
