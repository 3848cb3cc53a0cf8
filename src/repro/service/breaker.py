"""Per-backend circuit breaker.

A backend that keeps failing (a poisoned node, a broken accelerator
runtime, a bad deploy) must not keep eating requests out of the queue —
each doomed attempt burns deadline budget the request cannot get back.
The breaker wraps every backend with the classic three-state machine:

* **closed** — normal operation; consecutive failures are counted and
  any success resets the count;
* **open** — tripped after :data:`FAILURE_THRESHOLD` consecutive failures;
  all dispatches are refused for :data:`COOLDOWN_S` so the queue can be
  routed to healthy backends (or admission can fail fast);
* **half-open** — after the cooldown, exactly one probe request is let
  through: success closes the breaker, failure re-opens it for another
  full cooldown.

The breaker takes explicit timestamps from the service clock, so it is
deterministic under the simulated-clock soak harness.
"""

from __future__ import annotations


CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Numeric encoding for the state gauge (dashboards alert on > 0).
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

#: Consecutive failures that trip a closed breaker, and how long [s] an
#: open one refuses calls before it lets one probe through.
FAILURE_THRESHOLD = 3
COOLDOWN_S = 300.0


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probing."""

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.trips = 0
        self._probe_inflight = False

    def would_allow(self, now: float) -> bool:
        """Could a call pass at *now*?  Changes no state."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            return now - self.opened_at >= COOLDOWN_S
        return not self._probe_inflight

    def allow(self, now: float) -> bool:
        """May a request be dispatched to this backend right now?

        Past an open breaker's cooldown the call is the half-open probe:
        exactly one at a time.
        """
        if not self.would_allow(now):
            return False
        if self.state != CLOSED:
            self.state = HALF_OPEN
            self._probe_inflight = True
        return True

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        self._probe_inflight = False
        if self.state != CLOSED:
            self.state = CLOSED
            self.opened_at = None

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        self._probe_inflight = False
        if self.state == HALF_OPEN or (
            self.state == CLOSED
            and self.consecutive_failures >= FAILURE_THRESHOLD
        ):
            self.state = OPEN
            self.opened_at = now
            self.trips += 1

    def retry_after_s(self, now: float) -> float | None:
        """Seconds until the next half-open probe; None when closed."""
        if self.state != OPEN or self.opened_at is None:
            return None
        return max(0.0, self.opened_at + COOLDOWN_S - now)

    @property
    def state_code(self) -> int:
        return STATE_CODES[self.state]
