"""Structured logging: JSONL events on the shared timeline.

Replaces ad-hoc ``print`` diagnostics in the library with one event
stream.  Each record is a single JSON object (or a terse human line when
JSON mode is off) carrying the shared timestamp pair from
:mod:`repro.obs.timebase` plus the caller's fields (``rank``, ``step``,
``sim_time_s``, ...) — the same fields journal events carry, so log
lines, journal events, and trace spans all merge on one timeline.

The default sink is ``stderr`` so structured diagnostics never corrupt
a command's stdout deliverable (products, tables).  Configure once from
the CLI (``--log-level``, ``--log-json``) or programmatically::

    from repro.obs import log
    log.configure(level="debug", json_mode=True)
    logger = log.get_logger("persist")
    logger.warning("snapshot_skipped", snapshot=name, reason=str(exc))

A decision — of the forecast service about a request, or of a guarded
run (a rollback, a level drop, a lost rank, a corrected bit flip) — is
one :class:`ServiceEvent`, built once, as is a guarded run's start, resume,
interruption and completion.  A guarded run's records go through
:meth:`RunEvents.emit`, which keeps the record in the run's bounded ring
and hands it, once each, to the run journal, this log, the tracer and the
metrics registry; :data:`RUN_KINDS` says, per kind, how.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.obs.metrics import get_registry
from repro.obs.timebase import TIMEBASE, timestamp_pair
from repro.obs.trace import get_tracer

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}
_LEVEL_NAMES = {v: k for k, v in LEVELS.items()}


class LogConfig:
    """Process-wide logging configuration."""

    def __init__(self) -> None:
        self.threshold = LEVELS["warning"]
        self.json_mode = False
        self.stream = None  # None = sys.stderr at emit time


_CONFIG = LogConfig()


def configure(
    level: str = "warning",
    json_mode: bool = False,
    stream=None,
) -> None:
    """Set the process-wide log level, format, and sink."""
    if level not in LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; choose from {sorted(LEVELS)}"
        )
    _CONFIG.threshold = LEVELS[level]
    _CONFIG.json_mode = json_mode
    _CONFIG.stream = stream


class Logger:
    """Named logger emitting structured events."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def _emit(self, level: int, event: str, fields: dict) -> None:
        if level < _CONFIG.threshold:
            return
        ts_wall, ts_mono_us = timestamp_pair()
        rec = {
            "ts_wall": round(ts_wall, 6),
            "ts_mono_us": round(ts_mono_us, 1),
            "level": _LEVEL_NAMES[level],
            "logger": self.name,
            "event": event,
            **fields,
        }
        stream = _CONFIG.stream or sys.stderr
        if _CONFIG.json_mode:
            line = json.dumps(rec, sort_keys=True, default=str)
        else:
            detail = " ".join(
                f"{k}={v}"
                for k, v in rec.items()
                if k not in ("ts_wall", "ts_mono_us", "level", "logger",
                             "event")
            )
            line = f"[{rec['level']}] {self.name}: {event}"
            if detail:
                line += f" ({detail})"
        try:
            stream.write(line + "\n")
            stream.flush()
        except (OSError, ValueError):
            pass  # a closed sink must never take the forecast down

    def info(self, event: str, **fields) -> None:
        self._emit(LEVELS["info"], event, fields)

    def warning(self, event: str, **fields) -> None:
        self._emit(LEVELS["warning"], event, fields)


_LOGGERS: dict[str, Logger] = {}
_LOGGERS_LOCK = threading.Lock()


def get_logger(name: str) -> Logger:
    """The named logger (created on first use)."""
    with _LOGGERS_LOCK:
        logger = _LOGGERS.get(name)
        if logger is None:
            logger = _LOGGERS[name] = Logger(name)
        return logger


_RUN_LOG = get_logger("resilience")
_TRACER = get_tracer()


# -- the one event record ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class ServiceEvent:
    """One decision, built once: about a request, or in a guarded run.

    The service's bounded event log and the request's flight recorder hold
    the same record; :meth:`to_flight` is its form in a dumped recording.
    A guarded run's records go through :meth:`RunEvents.emit`;
    :meth:`journal_line` is their form in the run journal.
    """

    #: Time of the decision on its emitter's clock — the service's virtual
    #: clock, a run's simulated time — or None off the clock.
    t: float | None
    kind: str
    request_id: str = ""
    detail: str = ""
    #: Extra keys of the flight form (e.g. a queue-depth sample's depth).
    fields: dict | None = None
    #: ``(ts_wall, ts_mono_us)`` on the shared timebase, from one reading.
    stamp: tuple = field(default_factory=TIMEBASE.pair, compare=False,
                         repr=False)

    def to_flight(self) -> dict:
        ts_wall, ts_mono_us = self.stamp
        ev: dict = {"kind": self.kind, "ts_wall": ts_wall,
                    "ts_mono_us": ts_mono_us}
        if self.t is not None:
            ev["t_service"] = round(float(self.t), 6)
        if self.detail:
            ev["detail"] = self.detail
        if self.fields:
            ev.update(self.fields)
        return ev

    def journal_line(self) -> tuple[str, dict]:
        """``(event, fields)`` of this record's journal line (a run kind is
        its :data:`RUN_KINDS` event, naming the kind under the event's key)."""
        spec = RUN_KINDS.get(self.kind)
        line = {spec.key: self.kind} if spec and spec.key else {}
        line.update(self.fields or ())
        if self.detail:
            line["detail"] = self.detail
        return (spec.event if spec else self.kind), line


class EventRing:
    """Bounded record buffer — newest kept, drops counted.

    Reads like a list (len / iteration), but a week-long soak
    cannot grow memory without limit.
    """

    __slots__ = ("capacity", "dropped", "_events")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("event ring capacity must be >= 1")
        self.capacity = int(capacity)
        self.dropped = 0
        self._events: deque = deque(maxlen=self.capacity)

    def append(self, ev) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(ev)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)


# -- a guarded run's records ------------------------------------------------


@dataclass(frozen=True, slots=True)
class RunKind:
    """How one kind of run record is journaled, logged and metered."""

    #: Journal (and log) event name.
    event: str
    #: Journal field that names the kind, when the event has several.
    key: str | None = None
    #: The ``_total`` counter the record moves, and its help line.
    counter: str | None = None
    help: str = ""
    #: Journal field whose value labels the counter.
    label: str | None = None
    #: Journal field (a list) whose length the counter moves by; else 1.
    weight: str | None = None


#: Events of a run that lost state or fidelity: logged as warnings.
_WARN = ("recovery", "degradation", "rank_failure", "fallback_single_process")


def _kinds(kinds, *spec, **kw) -> dict[str, RunKind]:
    return dict.fromkeys(kinds, RunKind(*spec, **kw))


def _epoch(action: str, counter: str, help: str, **kw):
    """A recovery epoch, resumed from a checkpoint or from scratch."""
    return _kinds((action, f"{action}_scratch"), "recovery_epoch", "action",
                  counter, help, **kw)


#: The recovery kinds that roll a run back: one rollback each, wherever
#: rollbacks are counted (the report, the journal's ``complete``, inspect).
ROLLBACK_KINDS = ("rollback", "quarantine_rollback")

#: Every kind a guarded run emits: the one metering table.  A counter is
#: counted whether or not the run is traced — the metering rule.  Every
#: journal line but a snapshot's pair is one of these records.
RUN_KINDS: dict[str, RunKind] = {
    **_kinds((*ROLLBACK_KINDS, "dt_halved",
              "recovery_abort", "ckpt_evicted", "scrub"),
             "recovery", "kind", "repro_recovery_actions_total",
             "recovery-engine actions by kind", label="kind"),
    **_kinds(("drop_level", "coarsen_output", "finish_early"),
             "degradation", "action", "repro_degradations_total",
             "graceful-degradation actions by kind", label="action"),
    "detection": RunKind("integrity", "kind", "repro_integrity_detections_total",
                         "corruption detections by surface", label="surface"),
    "corrected": RunKind("integrity", "kind", "repro_integrity_corrections_total",
                         "corruption corrections by action", label="action"),
    "uncorrected": RunKind("integrity", "kind", "repro_integrity_uncorrected_total",
                           "detected-but-uncorrected corruption events"),
    **_kinds(("suspect", "diverged"), "physics", "verdict",
             "repro_physics_sentinel_events_total",
             "sentinel verdicts other than healthy", label="verdict"),
    "rank_failure": RunKind("rank_failure", None,
                            "repro_recovery_rank_failures_total",
                            "distributed ranks lost in-flight", weight="ranks"),
    **_epoch("epoch_retry", "repro_recovery_epoch_retries_total",
             "incarnation retries without a confirmed dead rank"),
    **_epoch("respawn", "repro_recovery_respawns_total",
             "dead ranks replaced from the spare pool", weight="dead"),
    **_epoch("shrink", "repro_recovery_shrinks_total",
             "re-decompositions onto the surviving ranks"),
    "fallback_single_process": RunKind(
        "fallback_single_process", None, "repro_recovery_breaker_trips_total",
        "survivable runs that fell back to single-process"),
    "hedge_migrate": RunKind("hedge_migrate", None, "repro_hedge_attempts_total",
                             "speculative straggler-block migrations attempted"),
    "hedge_commit": RunKind("hedge_commit", None, "repro_hedge_wins_total",
                            "hedge migrations that improved the window makespan"),
    "hedge_rollback": RunKind("hedge_rollback", None, "repro_hedge_losses_total",
                              "hedge migrations rolled back"),
    "hedge_breaker_open": RunKind("hedge_breaker_open"),
    # A run's lifecycle: journaled, logged and traced, and metered by none.
    **{kind: RunKind(kind) for kind in (
        "run_start", "resume", "interrupted", "complete",
        "distributed_start", "distributed_complete",
    )},
}

#: Newest records a guarded run keeps in memory (older dropped, counted).
RUN_EVENTS_HELD = 4096


class RunEvents(EventRing):
    """A guarded run's records: one ring, and the one place they fan out.

    :meth:`emit` keeps a record, writes its journal line when the run has a
    *store*, logs it, traces it when the tracer is armed and moves its
    kind's counter — once each.  Thread-safe.  The
    ring holds the newest records; :meth:`count`, :meth:`weight` and
    :meth:`labels` count every one emitted.  A run directory has one, its
    store's ``run_events``.
    """

    __slots__ = ("store", "_lock", "_counts", "_weights", "_labels")

    def __init__(self, store=None) -> None:
        super().__init__(RUN_EVENTS_HELD)
        self.store = store
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._weights: dict[str, int] = {}
        self._labels: dict[str, dict] = {}

    def emit(self, ev: ServiceEvent) -> None:
        spec = RUN_KINDS[ev.kind]
        event, line = ev.journal_line()
        weight = len(line[spec.weight]) if spec.weight else 1
        # One lock over all four: the ring and the journal keep one order,
        # and a counter's add is a read-modify-write.
        with self._lock:
            self.append(ev)
            self._counts[ev.kind] = self._counts.get(ev.kind, 0) + 1
            self._weights[ev.kind] = self._weights.get(ev.kind, 0) + weight
            if spec.label:
                by = self._labels.setdefault(ev.kind, {})
                by[line[spec.label]] = by.get(line[spec.label], 0) + 1
            if self.store is not None:
                self.store.journal.record(ev)
            level = "warning" if event in _WARN else "info"
            getattr(_RUN_LOG, level)(event, **line)
            if _TRACER.enabled:
                name = f"{event}:{ev.kind}" if spec.key else event
                _TRACER.instant(name, **line)
            if spec.counter is not None:
                get_registry().counter(
                    spec.counter, spec.help,
                    labels={spec.label: line[spec.label]} if spec.label else None,
                ).inc(weight)

    def count(self, *kinds: str) -> int:
        """Records of these kinds emitted, held or dropped from the ring."""
        return sum(self._counts.get(kind, 0) for kind in kinds)

    def weight(self, *kinds: str) -> int:
        """What these kinds moved their counters by: :meth:`count`, or the
        lengths of their ``weight`` field (the ranks a failure lost)."""
        return sum(self._weights.get(kind, 0) for kind in kinds)

    def labels(self, kind: str) -> dict:
        """Records of *kind* emitted, per value of its counter's label, in
        the order the values first appeared."""
        return dict(self._labels.get(kind, ()))

    def of(self, event: str) -> list[ServiceEvent]:
        """The ring's records journaled as *event*, oldest first."""
        return [ev for ev in self if RUN_KINDS[ev.kind].event == event]


def counted(*kinds: str) -> property:
    """A report tally: the count of its run's (``.events``) *kinds*."""
    return property(lambda report: report.events.count(*kinds))


def traced_gauge(name: str, help: str, value: float) -> None:
    """Set a gauge beside a run's records: gauges are read off traced
    runs, so an untraced run leaves them alone."""
    if _TRACER.enabled:
        get_registry().gauge(name, help).set(value)
