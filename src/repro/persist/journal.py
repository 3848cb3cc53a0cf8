"""Write-ahead run journal: an append-only JSONL event log.

Every durable fact about a run — its configuration, each checkpoint,
each health/degradation/recovery action, the completion — is one JSON
object per line, flushed and fsynced before the caller proceeds.  A
crash can therefore tear at most the final line; the reader detects and
drops a torn tail instead of failing, which is what lets
``repro resume`` classify an interrupted run from its journal alone, and
the writer cuts that tail before it appends again, so the resumed run's
lines are read too.
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
    """Append-only, fsync-on-write event log for one run directory.

    The file is parsed once, when the journal is opened: its lines and its
    torn-tail warning are kept, and :meth:`record` appends to the kept
    lines.  A file that another writer changed since is parsed again.
    Before its first append to a torn file the journal cuts the torn tail
    back to the last whole line, so the new lines do not land on a
    fragment that would hide them from :func:`read_journal`.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._seq = 0
        self._load()

    def _load(self) -> None:
        try:
            self._lines, self._warning = read_journal(self.path)
        except FileNotFoundError:
            self._lines, self._warning = [], None
        self._seen = _stamp(self.path)
        self._seq = max([self._seq] + [int(ev.get("seq", 0))
                                       for ev in self._lines])

    def _refresh(self) -> None:
        if _stamp(self.path) != self._seen:
            self._load()

    def read(self) -> tuple[list[dict], str | None]:
        """``(events, warning)``, as :func:`read_journal` gives them."""
        self._refresh()
        return list(self._lines), self._warning

    def events(self) -> list[dict]:
        """All parseable events currently on disk."""
        return self.read()[0]

    def record(self, record: ServiceEvent) -> dict:
        """Durably append one run record's line; returns the line written.

        The run's :meth:`~repro.obs.log.RunEvents.emit` and the snapshot
        pair of :meth:`~repro.persist.RunStore.save_snapshot` are the two
        writers.  The line carries the record's stamp, the shared
        monotonic + wall-clock pair of :mod:`repro.obs.timebase` that trace
        spans use, so merged journal/trace timelines stay monotone even
        when the system clock steps or the run is resumed in a new process.
        """
        self._refresh()
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
                if self._warning is not None:
                    self._cut()
                with open(self.path, "a") as fh:
                    fh.write(line + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                    self._seen = _stamp(fh.fileno())
        except OSError as exc:
            raise PersistError(
                f"cannot append to run journal {self.path}: {exc}"
            ) from exc
        self._lines.append(json.loads(line))  # as a reader parses it
        return rec

    def _cut(self) -> None:
        """Cut the file back to the lines the parse kept."""
        with open(self.path, "rb+") as fh:
            fh.truncate(_end_of_lines(fh.read(), len(self._lines)))
            os.fsync(fh.fileno())
        self._warning = None


def _stamp(path) -> tuple[int, int, int] | None:
    """What tells a file (a path or an open descriptor) from its state at
    the last parse."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


def _end_of_lines(raw: bytes, n: int) -> int:
    """Byte offset just past the *n*-th non-blank line of *raw*."""
    at = 0
    for line in raw.splitlines(keepends=True):
        if n == 0:
            break
        at += len(line)
        n -= bool(line.strip())
    return at


def read_journal(path: Path) -> tuple[list[dict], str | None]:
    """Parse a journal file, tolerating a torn final line.

    Returns ``(events, warning)``; *warning* is a human-readable note
    when a torn/corrupt tail was dropped (``None`` for a clean file).  A
    last line without its newline is torn, whether or not it parses: its
    append never finished.
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
            if lineno == len(lines) and not raw.endswith("\n"):
                raise ValueError("no newline")
            rec = json.loads(line)
        except ValueError:  # json.JSONDecodeError is one
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
