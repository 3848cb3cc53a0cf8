"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The operational vocabulary of the paper's evaluation — steps/s, cells/s,
halo bytes, checkpoint latency, queue occupancy, rank wait-time skew —
becomes named instruments in one process-wide :class:`MetricsRegistry`,
exported as ``metrics.json`` (:meth:`MetricsRegistry.to_dict` /
:meth:`MetricsRegistry.write_json`), the per-run snapshot dropped in the
run directory that ``repro inspect`` reads.

Instruments are cheap (a float add under no lock contention in the
common single-writer case) but still gated behind ``obs`` enablement in
hot loops so a disabled run pays nothing.
"""

from __future__ import annotations

import math
import re
import threading
from pathlib import Path

from repro.artifacts import publish_json

#: Default histogram buckets [seconds] — spans checkpoint writes (ms) to
#: full-forecast step times.
DEFAULT_SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Schema stamp of one ``metrics.json`` snapshot.
METRICS_SCHEMA = "repro.obs.metrics/1"

#: Counter of NaN/negative histogram inputs counted-and-skipped instead
#: of corrupting ``sum``/quantiles; exported only once non-zero.
BAD_OBSERVATIONS_NAME = "repro_metrics_bad_observations_total"


def _labels_key(labels: dict | None) -> tuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _labels_text(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing sum."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with an ``+Inf`` tail bucket.

    Each bucket retains the **most recent exemplar** — the ``trace_id``
    (and exact value) of one observation that landed in it — so a
    latency-tail bucket links straight to the trace and flight record of
    a request that produced it.  Retention is bounded by construction:
    one exemplar per bucket, overwritten in place.
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count",
                 "exemplars", "bad_observations")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +Inf tail
        self.sum = 0.0
        self.count = 0
        #: Per-bucket ``(trace_id, value)`` of the newest observation.
        self.exemplars: list[tuple[str, float] | None] = (
            [None] * (len(self.buckets) + 1)
        )
        #: NaN / negative inputs counted and *skipped* — they would
        #: otherwise poison ``sum`` and every derived quantile.
        self.bad_observations = 0

    def observe(self, value: float, trace_id: str | None = None) -> None:
        if math.isnan(value) or value < 0:
            self.bad_observations += 1
            return
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                if trace_id is not None:
                    self.exemplars[i] = (str(trace_id), value)
                return
        self.counts[-1] += 1
        if trace_id is not None:
            self.exemplars[-1] = (str(trace_id), value)


class MetricsRegistry:
    """Named instruments with idempotent registration."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple], Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, help: str, labels: dict | None, **kw):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        key = (name, _labels_key(labels))
        with self._lock:
            inst = self._metrics.get(key)
            if inst is None:
                inst = cls(name, help, **kw)
                self._metrics[key] = inst
            elif not isinstance(inst, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}"
                )
        return inst

    def counter(self, name: str, help: str = "",
                labels: dict | None = None) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: dict | None = None) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict | None = None,
        buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def counters(self) -> dict[tuple[str, tuple], Counter]:
        """Every counter by ``(name, labels key)`` — what a forked rank
        diffs to send its increments home (``dict(key[1])`` = labels)."""
        return {k: m for k, m in self._items() if isinstance(m, Counter)}

    def sample(self, prefix: str = "") -> dict[str, float]:
        """Scalar samples (counters and gauges) filtered by name prefix.

        Histograms are skipped — they have no single scalar value.  The
        survivable runtime's ``repro_recovery_*`` / ``repro_hedge_*``
        family is the motivating consumer: the CLI and the chaos tests
        read one family of instruments without parsing a full export.
        """
        out: dict[str, float] = {}
        for (name, lkey), m in self._items():
            if isinstance(m, Histogram) or not name.startswith(prefix):
                continue
            out[name + _labels_text(lkey)] = m.value
        bad = self.bad_observations_total()
        if bad and BAD_OBSERVATIONS_NAME.startswith(prefix):
            out[BAD_OBSERVATIONS_NAME] = float(bad)
        return out

    def bad_observations_total(self) -> int:
        """NaN/negative observations skipped across every histogram."""
        return sum(
            m.bad_observations
            for _k, m in self._items()
            if isinstance(m, Histogram)
        )

    # -- export ----------------------------------------------------------

    def _items(self):
        with self._lock:
            return sorted(self._metrics.items())

    def to_dict(self) -> dict:
        """JSON-ready snapshot (the ``metrics.json`` schema, version 1)."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for (name, lkey), m in self._items():
            full = name + _labels_text(lkey)
            if isinstance(m, Counter):
                counters[full] = m.value
            elif isinstance(m, Gauge):
                gauges[full] = m.value
            else:
                entry = {
                    "buckets": list(m.buckets),
                    "counts": list(m.counts),
                    "sum": m.sum,
                    "count": m.count,
                }
                if any(ex is not None for ex in m.exemplars):
                    entry["exemplars"] = [
                        None if ex is None
                        else {"trace_id": ex[0], "value": ex[1]}
                        for ex in m.exemplars
                    ]
                histograms[full] = entry
        bad = self.bad_observations_total()
        if bad:
            counters[BAD_OBSERVATIONS_NAME] = float(bad)
        from repro.core.loopnest import provenance  # not above: core imports obs

        return {
            "schema": METRICS_SCHEMA,
            # What ran NLMASS/NLMNT2/OUTPUT in this process: "nest" or "numpy",
            # the compiler asked, why it fell back (None: no kernel ran), and
            # the nest's kernel calls prepared and launched so far.
            "kernel_executor": provenance(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def write_json(self, path) -> Path:
        """Atomically publish the ``metrics.json`` snapshot."""
        return publish_json(path, self.to_dict(), indent=2, sort_keys=True)


#: The process-wide registry used by all built-in instrumentation.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY
