"""Per-request flight recorder: the last N events of one request's life.

A service under overload makes dozens of decisions about each request —
admit at a planned fidelity, re-degrade at dispatch, retry after a
backend fault, shed to relieve a critical arrival — and when one request
ends badly the question is always *what happened to this one*, not what
the aggregate counters say.  The flight recorder answers it the way an
aircraft's does: a bounded ring buffer per in-flight request capturing
state transitions, degradations, retries, breaker trips, recovery
epochs, and queue-depth samples, each stamped with the service's virtual
time **and** the shared monotonic+wall pair from
:mod:`repro.obs.timebase` (so flight events line up with trace spans and
journal records on either axis).  An event is a
:class:`~repro.obs.log.ServiceEvent`: the service builds one per
decision, and the same record sits in its own bounded
:class:`~repro.obs.log.EventRing` and in the request's recorder.

On a bad ending — shed, failure, or deadline breach — the recorder is
dumped as ``flight/<request_id>.json`` under the run directory, and
``repro inspect --request <id>`` renders the timeline.  Memory stays
bounded everywhere: N events per request (oldest dropped, drop count
kept), and a bounded ring of settled recorders.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

from repro.artifacts import load_json_artifact, publish_json
from repro.obs.log import EventRing, ServiceEvent

#: Schema stamp of one dumped flight recording.
FLIGHT_SCHEMA = "repro.obs.flight/1"

#: Subdirectory of a run directory holding dumped recordings.
FLIGHT_DIR = "flight"


class FlightRecorder(EventRing):
    """The ring of one request's :class:`ServiceEvent` records."""

    __slots__ = ("request_id", "meta", "outcome")

    def __init__(self, request_id: str, capacity: int = 64,
                 meta: dict | None = None) -> None:
        super().__init__(capacity)
        self.request_id = request_id
        self.meta = dict(meta or {})
        self.outcome: str | None = None

    def record(self, kind: str, detail: str = "",
               t_service: float | None = None, **fields) -> None:
        """Append one event; the oldest falls off a full ring."""
        self.append(ServiceEvent(
            t_service, kind, self.request_id, detail, fields or None
        ))

    def events(self) -> list[dict]:
        return [ev.to_flight() for ev in self]

    def to_dict(self) -> dict:
        doc: dict = {
            "schema": FLIGHT_SCHEMA,
            "request_id": self.request_id,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "events": self.events(),
        }
        if self.meta:
            doc["meta"] = self.meta
        if self.outcome is not None:
            doc["outcome"] = self.outcome
        return doc


class FlightBook:
    """All live (and a bounded ring of settled) flight recorders.

    *out_dir* — typically ``<rundir>/flight`` — enables on-disk dumps;
    without it the book is purely in-memory (unit tests, ad-hoc runs).
    """

    def __init__(self, capacity: int = 64, keep: int = 512,
                 out_dir=None) -> None:
        if capacity < 1 or keep < 1:
            raise ValueError("flight capacity and keep must be >= 1")
        self.capacity = int(capacity)
        self.keep = int(keep)
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self._live: dict[str, FlightRecorder] = {}
        self._settled: OrderedDict[str, FlightRecorder] = OrderedDict()

    def open(self, request_id: str, **meta) -> FlightRecorder:
        """Start (or return) the recorder for one in-flight request."""
        rec = self._live.get(request_id)
        if rec is None:
            rec = FlightRecorder(request_id, self.capacity, meta=meta)
            self._live[request_id] = rec
        return rec

    def get(self, request_id: str) -> FlightRecorder | None:
        return self._live.get(request_id) or self._settled.get(request_id)

    def note(self, request_id: str, kind: str, detail: str = "",
             t_service: float | None = None, **fields) -> None:
        """Record into an open recorder; silently ignores unknown ids."""
        rec = self._live.get(request_id)
        if rec is not None:
            rec.record(kind, detail, t_service=t_service, **fields)

    def add(self, event: ServiceEvent) -> None:
        """File an already-built record with its request's open recorder;
        silently ignores unknown ids."""
        rec = self._live.get(event.request_id)
        if rec is not None:
            rec.append(event)

    def settle(self, request_id: str, outcome: str | None = None,
               dump: bool = False) -> Path | None:
        """Close a request's recorder; optionally dump it to disk.

        The settled ring keeps the most recent :attr:`keep` recorders so
        post-mortems of a just-finished soak stay possible without
        unbounded growth.  Returns the dump path when one was written.
        """
        rec = self._live.pop(request_id, None)
        if rec is None:
            return None
        if outcome is not None:
            rec.outcome = outcome
        self._settled[request_id] = rec
        while len(self._settled) > self.keep:
            self._settled.popitem(last=False)
        if dump:
            return self.dump(request_id)
        return None

    def dump(self, request_id: str) -> Path | None:
        """Atomically write ``<out_dir>/<request_id>.json``; None if
        the book has no directory or no such recorder."""
        rec = self.get(request_id)
        if rec is None or self.out_dir is None:
            return None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return publish_json(
            self.out_dir / f"{request_id}.json", rec.to_dict(),
            indent=2, sort_keys=True,
        )

    def stats(self) -> dict:
        return {
            "live": len(self._live),
            "settled": len(self._settled),
            "dropped_events": (
                sum(r.dropped for r in self._live.values())
                + sum(r.dropped for r in self._settled.values())
            ),
        }


def flight_path(rundir, request_id: str) -> Path:
    """Where one request's dumped recording lives under a run directory."""
    return Path(rundir) / FLIGHT_DIR / f"{request_id}.json"


def load_flight(path) -> dict:
    """Load and sanity-check one dumped flight recording."""
    return load_json_artifact(path, FLIGHT_SCHEMA, "a flight recording")


def render_flight(doc: dict) -> str:
    """Human timeline of one flight recording (the ``--request`` view)."""
    lines = [f"flight recorder : {doc.get('request_id', '?')}"]
    meta = doc.get("meta") or {}
    if meta:
        lines.append(
            "request         : "
            + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        )
    if doc.get("outcome"):
        lines.append(f"outcome         : {doc['outcome']}")
    events = doc.get("events", [])
    dropped = doc.get("dropped", 0)
    lines.append(
        f"events          : {len(events)} recorded, {dropped} dropped "
        f"(ring capacity {doc.get('capacity', '?')})"
    )
    skip = {"kind", "detail", "ts_wall", "ts_mono_us", "t_service"}
    for ev in events:
        t = ev.get("t_service")
        stamp = f"t={t:>10.3f}s" if t is not None else " " * 13
        line = f"  {stamp}  {ev.get('kind', '?'):<18}"
        if ev.get("detail"):
            line += f" {ev['detail']}"
        extra = {k: v for k, v in ev.items() if k not in skip}
        if extra:
            line += "  [" + " ".join(
                f"{k}={v}" for k, v in sorted(extra.items())
            ) + "]"
        lines.append(line)
    return "\n".join(lines)
