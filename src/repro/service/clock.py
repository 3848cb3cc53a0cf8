"""Service time source: a monotonically advancing virtual clock.

The forecast service is a discrete-event system: arrivals, dispatches,
and completions all happen at explicit instants, and every duration in
the system (execution cost, queue wait, latency) is priced through the
same hardware model the rest of the stack uses.  Driving it from a
virtual clock makes the whole service deterministic — the soak harness
replays a seeded Poisson burst bit-for-bit, and tests assert on exact
queue states at exact times.
"""

from __future__ import annotations

from repro.errors import ServiceError


class VirtualClock:
    """Deterministic simulated time; only moves when told to."""

    def __init__(self, start_s: float = 0.0) -> None:
        self._now = float(start_s)

    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        if t < self._now - 1e-12:
            raise ServiceError(
                f"clock cannot run backwards: {t} < {self._now}"
            )
        self._now = max(self._now, float(t))

