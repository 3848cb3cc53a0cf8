"""Unified telemetry: span tracing, metrics, structured logs, exporters.

``repro.obs`` is the single clock and accounting source for the stack:

* :mod:`~repro.obs.timebase` — one monotonic + wall-clock pair shared by
  journal events, trace spans, and log records;
* :mod:`~repro.obs.trace` — hierarchical span tracer instrumenting the
  Fig.-2 pipeline phases, halo exchanges, checkpoint writes, and
  recovery actions (no-op when disabled);
* :mod:`~repro.obs.metrics` — counters/gauges/histograms and a per-run
  ``metrics.json`` snapshot;
* :mod:`~repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) from live spans, service decisions and physics
  counters;
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
  numerical-health sampler (mass drift, CFL margin, peaks, wet front)
  and the divergence sentinel that aborts doomed runs early,
  exported as ``repro_physics_*`` metrics, ``physics.json``, and Chrome
  counter tracks, rendered by ``repro inspect --physics``.

One switch arms the whole layer::

    import repro.obs as obs
    obs.enable()                # tracer + metrics collection on
    ...run a forecast...
    obs.write_chrome_trace(rundir / "trace.json")
    obs.get_registry().write_json(rundir / "metrics.json")
"""

from __future__ import annotations

from repro.lazy import exports
from repro.obs import log, metrics, trace
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.timebase import TIMEBASE, timestamp_pair
from repro.obs.trace import (
    TraceContext,
    Tracer,
    context,
    get_tracer,
    span,
)

# The leaves above are what every instrumented module needs; the rest
# (critpath reaches repro.runtime, physics reaches repro.core) binds on
# first access, so importing repro.obs.trace loads no layer above it.
__getattr__, __dir__, _lazy = exports(__name__, {
    "critpath": "analyze_spans",
    "export": "chrome_trace physics_counter_events queue_occupancy"
              " service_events_to_chrome write_chrome_trace",
    "flight": "FlightBook FlightRecorder flight_path load_flight"
              " render_flight",
    "inspect": "breakdowns_from_spans imbalance_ratio inspect_integrity"
               " inspect_physics inspect_request load_rundir"
               " render_report top_spans",
    "physics": "PhysicsDivergenceError PhysicsSampler"
               " load_physics_report physics_doc"
               " render_physics_doc write_physics_json",
    "slo": "SLO SLOEngine load_slo_report render_slo_doc",
})


def enable() -> None:
    """Arm tracing and metrics collection for this process."""
    trace.enable()


def disable() -> None:
    trace.disable()


def reset() -> None:
    """Drop all collected spans and metrics (tests, fresh runs)."""
    trace.clear()
    get_registry().clear()


__all__ = [
    "TIMEBASE",
    "MetricsRegistry",
    "TraceContext",
    "Tracer",
    "configure_logging",
    "context",
    "critpath",
    "disable",
    "enable",
    "flight",
    "get_logger",
    "get_registry",
    "get_tracer",
    "log",
    "metrics",
    "physics",
    "reset",
    "slo",
    "span",
    "timestamp_pair",
    "trace",
    *_lazy,
]
