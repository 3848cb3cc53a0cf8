"""Content-addressed result cache with single-flight deduplication.

During a real event the same handful of scenarios is requested by many
consumers at once (every downstream system wants the same coastline).
Running identical work twice is pure waste, so the cache serves two
jobs:

* **result cache** — a bounded LRU of completed results keyed by the
  scenario content hash (:func:`repro.service.request.scenario_key`).
  Only *full-fidelity* results are stored: a degraded forecast is an
  artifact of one request's deadline pressure and must never be served
  to a later request that could have afforded the real thing.
* **single-flight** — while a computation is in flight, later identical
  requests *join* the flight instead of queueing their own run; all
  joiners resolve with the primary's result the moment it lands (and
  with its error if it fails — an error is also deduplicated, the
  joiners retry on their own schedule).

The cache is a passive data structure driven by the service's event
loop; it never blocks.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ServiceError

INFLIGHT = "inflight"
DONE = "done"

#: Completed results the LRU holds.
CAPACITY = 256


class CacheEntry:
    """One computation: in flight (with joiners) or done (with result)."""

    __slots__ = ("key", "state", "result", "error", "primary", "waiters",
                 "resolved_s", "hits")

    def __init__(self, key: str, primary) -> None:
        self.key = key
        self.state = INFLIGHT
        self.result = None
        self.error: BaseException | None = None
        self.primary = primary  # the ticket whose run produces the result
        self.waiters: list = []  # joined tickets
        self.resolved_s: float | None = None
        self.hits = 0


class SingleFlightCache:
    """Bounded LRU of done entries + unbounded in-flight index.

    (The in-flight index is implicitly bounded by the admission queue
    plus the worker pool — every in-flight entry corresponds to one
    admitted request.)
    """

    def __init__(self) -> None:
        self._done: OrderedDict[str, CacheEntry] = OrderedDict()
        self._inflight: dict[str, CacheEntry] = {}
        self.hits = 0
        self.joins = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: str) -> CacheEntry | None:
        """Done entry (LRU-refreshed) or in-flight entry or ``None``.

        Pure lookup — the *service* decides whether to count a hit, join
        the flight, or start a new one.
        """
        entry = self._done.get(key)
        if entry is not None:
            self._done.move_to_end(key)
            return entry
        return self._inflight.get(key)

    def record_hit(self, entry: CacheEntry) -> None:
        entry.hits += 1
        self.hits += 1

    def begin(self, key: str, primary) -> CacheEntry:
        """Open a new flight for *key* with *primary* as its runner."""
        if key in self._inflight:
            raise ServiceError(f"flight already open for {key[:12]}")
        entry = CacheEntry(key, primary)
        self._inflight[key] = entry
        self.misses += 1
        return entry

    def join(self, entry: CacheEntry, ticket) -> None:
        if entry.state != INFLIGHT:
            raise ServiceError("can only join an in-flight entry")
        entry.waiters.append(ticket)
        self.joins += 1

    def resolve(
        self, key: str, result, now: float, cacheable: bool
    ) -> CacheEntry | None:
        """Complete a flight; store the result when *cacheable*."""
        entry = self._inflight.pop(key, None)
        if entry is None:
            return None
        entry.state = DONE
        entry.result = result
        entry.resolved_s = now
        if cacheable:
            self._done[key] = entry
            self._done.move_to_end(key)
            while len(self._done) > CAPACITY:
                self._done.popitem(last=False)
                self.evictions += 1
        return entry

    def fail(self, key: str, error: BaseException) -> CacheEntry | None:
        """Abort a flight: waiters observe *error*; nothing is stored."""
        entry = self._inflight.pop(key, None)
        if entry is None:
            return None
        entry.state = DONE
        entry.error = error
        return entry

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "joins": self.joins,
            "evictions": self.evictions,
            "done_entries": len(self._done),
            "inflight": len(self._inflight),
        }
