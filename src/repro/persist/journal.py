"""Write-ahead run journal: an append-only JSONL event log.

Every durable fact about a run — its configuration, each checkpoint,
each health/degradation/recovery action, the completion — is one JSON
object per line, flushed and fsynced before the caller proceeds.  A
crash can therefore tear at most the final line; the reader detects and
drops a torn tail instead of failing, which is what lets
``repro resume`` classify an interrupted run from its journal alone.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import PersistError
from repro.obs.log import ServiceEvent
from repro.obs.trace import span as _span

#: Journal format version, recorded in every ``run_start`` event.
#: Version 2 adds the shared ``ts_wall``/``ts_mono_us`` timestamp pair
#: (same timebase as trace spans, see :mod:`repro.obs.timebase`) so
#: journal events and spans merge into one timeline that never runs
#: backwards — including across a crash/resume boundary.
JOURNAL_VERSION = 2


class RunJournal:
    """Append-only, fsync-on-write event log for one run directory."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._seq = max((int(ev.get("seq", 0)) for ev in self.events()),
                        default=0)

    def record(self, record: ServiceEvent) -> dict:
        """Durably append one run record's line; returns the line written.

        The run's :meth:`~repro.obs.log.RunEvents.emit` and the snapshot
        pair of :meth:`~repro.persist.RunStore.save_snapshot` are the two
        writers.  The line carries the record's stamp, the shared
        monotonic + wall-clock pair of :mod:`repro.obs.timebase` that trace
        spans use, so merged journal/trace timelines stay monotone even
        when the system clock steps or the run is resumed in a new process.
        """
        name, fields = record.journal_line()
        ts_wall, ts_mono_us = record.stamp
        self._seq += 1
        rec = {
            "seq": self._seq,
            "ts_wall": round(ts_wall, 6),
            "ts_mono_us": round(ts_mono_us, 1),
            "event": name,
            **fields,
        }
        line = json.dumps(rec, sort_keys=True, default=str)
        try:
            with _span("journal_append", cat="persist", event=name):
                with open(self.path, "a") as fh:
                    fh.write(line + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
        except OSError as exc:
            raise PersistError(
                f"cannot append to run journal {self.path}: {exc}"
            ) from exc
        return rec

    def events(self) -> list[dict]:
        """All parseable events currently on disk."""
        try:
            events, _ = read_journal(self.path)
        except FileNotFoundError:
            return []
        return events


def read_journal(path: Path) -> tuple[list[dict], str | None]:
    """Parse a journal file, tolerating a torn final line.

    Returns ``(events, warning)``; *warning* is a human-readable note
    when a torn/corrupt tail was dropped (``None`` for a clean file).
    Raises :class:`FileNotFoundError` if the file does not exist and
    :class:`~repro.errors.PersistError` if it cannot be read at all.
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise PersistError(f"cannot read run journal {path}: {exc}") from exc
    events: list[dict] = []
    warning: str | None = None
    lines = raw.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            dropped = len(lines) - lineno + 1
            warning = (
                f"journal {path} is torn at line {lineno}; dropped "
                f"{dropped} trailing line(s) (crash mid-append)"
            )
            break
        if not isinstance(rec, dict):
            warning = f"journal {path} line {lineno} is not an object; stopped"
            break
        events.append(rec)
    return events, warning
