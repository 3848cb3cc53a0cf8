"""One clock to rule the run: a shared monotonic + wall-clock pair.

Every timestamped record this library produces — journal events, trace
spans, structured log lines, metrics snapshots — derives from the same
:class:`TimeBase`: a wall-clock epoch captured **once** per process,
paired with the monotonic counter reading at that instant.  Wall time is
then always *derived* (``wall0 + mono``), never re-read from the system
clock, which gives two guarantees:

* within one process, every derived wall timestamp is strictly
  monotonic even if NTP steps the system clock mid-run;
* across a crash/resume cycle, the resumed process anchors a fresh
  (later) epoch, so a merged timeline of journal events and trace spans
  from both processes sorts by derived wall time without ever going
  backwards — the property ``repro inspect`` relies on when it stitches
  a resumed run back together.

The pair is recorded together (``ts_wall`` seconds since the epoch,
``ts_mono_us`` microseconds since process anchor) so consumers can pick
whichever axis fits: intra-run ordering and durations use the monotonic
axis; cross-run merging uses the wall axis.
"""

from __future__ import annotations

import time


class TimeBase:
    """Anchored clock pair; one instance is shared process-wide."""

    def __init__(self) -> None:
        self.wall0 = time.time()
        self.mono0 = time.perf_counter()

    def mono_us(self) -> float:
        """Microseconds of monotonic time since the process anchor."""
        return (time.perf_counter() - self.mono0) * 1e6

    def wall_of(self, mono_us: float) -> float:
        """Derived wall-clock seconds for a monotonic reading."""
        return self.wall0 + mono_us * 1e-6

    def pair(self) -> tuple[float, float]:
        """``(ts_wall, ts_mono_us)`` for one event, from one reading."""
        mono = self.mono_us()
        return self.wall0 + mono * 1e-6, mono


#: The process-wide timebase every subsystem stamps against.
TIMEBASE = TimeBase()


def timestamp_pair() -> tuple[float, float]:
    """The shared ``(ts_wall, ts_mono_us)`` pair for one event."""
    return TIMEBASE.pair()
