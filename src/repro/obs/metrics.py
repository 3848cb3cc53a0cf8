"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The operational vocabulary of the paper's evaluation — steps/s, cells/s,
halo bytes, checkpoint latency, queue occupancy, rank wait-time skew —
becomes named instruments in one process-wide :class:`MetricsRegistry`.
Two export formats:

* **Prometheus text format** (:meth:`MetricsRegistry.to_prometheus`) for
  scrape-style integration; :func:`parse_prometheus` round-trips it,
  which the test suite uses as a format-correctness oracle;
* **``metrics.json``** (:meth:`MetricsRegistry.to_dict` /
  :meth:`MetricsRegistry.write_json`), the per-run snapshot dropped in
  the run directory that ``repro inspect`` reads.

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


def _exemplar_text(ex: tuple[str, float] | None) -> str:
    """OpenMetrics-style exemplar suffix for one bucket sample line."""
    if ex is None:
        return ""
    return f' # {{trace_id="{ex[0]}"}} {ex[1]:g}'

#: Quantile summaries exported for every non-empty histogram.
QUANTILE_SUFFIXES: tuple[tuple[float, str], ...] = (
    (0.50, "p50"),
    (0.95, "p95"),
    (0.99, "p99"),
)


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

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative fixed-bucket histogram (Prometheus semantics).

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

    def cumulative_counts(self) -> list[int]:
        """Counts as Prometheus exposes them: cumulative, ending at +Inf."""
        out, acc = [], 0
        for c in self.counts:
            acc += c
            out.append(acc)
        return out

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket).

        An empty histogram has no observations to rank, so every
        quantile is 0.0 — never NaN, which would poison downstream
        arithmetic and serialize as the non-standard token ``nan`` in
        JSON (the Prometheus export additionally omits the derived
        quantile gauges entirely until the first observation).
        """
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        acc = 0
        for i, c in enumerate(self.counts[:-1]):
            acc += c
            if acc >= target:
                return self.buckets[i]
        return math.inf


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

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        typed: set[str] = set()
        for (name, lkey), m in self._items():
            kind = {Counter: "counter", Gauge: "gauge",
                    Histogram: "histogram"}[type(m)]
            if name not in typed:
                if m.help:
                    lines.append(f"# HELP {name} {m.help}")
                lines.append(f"# TYPE {name} {kind}")
                typed.add(name)
            if isinstance(m, Histogram):
                cum = m.cumulative_counts()
                for i, (bound, c) in enumerate(zip(m.buckets, cum)):
                    lb = _labels_text(lkey + (("le", f"{bound:g}"),))
                    lines.append(
                        f"{name}_bucket{lb} {c}"
                        + _exemplar_text(m.exemplars[i])
                    )
                lb = _labels_text(lkey + (("le", "+Inf"),))
                lines.append(
                    f"{name}_bucket{lb} {cum[-1]}"
                    + _exemplar_text(m.exemplars[-1])
                )
                lines.append(f"{name}_sum{_labels_text(lkey)} {m.sum:g}")
                lines.append(f"{name}_count{_labels_text(lkey)} {m.count}")
                # Derived p50/p95/p99 summaries (bucket-resolution upper
                # bounds) so dashboards get tail latencies without
                # re-deriving them from the cumulative buckets.
                if m.count:
                    for q, suffix in QUANTILE_SUFFIXES:
                        qname = f"{name}_{suffix}"
                        if qname not in typed:
                            lines.append(f"# TYPE {qname} gauge")
                            typed.add(qname)
                        v = m.quantile(q)
                        text = "+Inf" if math.isinf(v) else f"{v:g}"
                        lines.append(
                            f"{qname}{_labels_text(lkey)} {text}"
                        )
            else:
                lines.append(f"{name}{_labels_text(lkey)} {m.value:g}")
        bad = self.bad_observations_total()
        if bad:
            lines.append(f"# TYPE {BAD_OBSERVATIONS_NAME} counter")
            lines.append(f"{BAD_OBSERVATIONS_NAME} {bad}")
        return "\n".join(lines) + "\n"

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


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+(?P<value>\S+)"
    r"(?:\s+#\s+(?P<exemplar>\{[^}]*\}\s+\S+(?:\s+\S+)?))?$"
)

_EXEMPLAR_RE = re.compile(
    r'^\{trace_id="(?P<trace_id>[^"]*)"\}\s+(?P<value>\S+)'
)


def parse_prometheus(
    text: str, exemplars: dict | None = None
) -> dict[str, float]:
    """Parse Prometheus text format into ``{sample_name: value}``.

    Sample names include their label set verbatim (e.g.
    ``repro_step_seconds_bucket{le="0.01"}``), so
    ``parse_prometheus(reg.to_prometheus())`` round-trips every sample a
    scraper would see.  OpenMetrics-style exemplar suffixes
    (``... # {trace_id="req-3"} 4.2``) are accepted; pass an
    *exemplars* dict to collect them as
    ``{sample_name: {"trace_id": ..., "value": ...}}``.  Raises
    :class:`ValueError` on malformed lines.
    """
    out: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"malformed prometheus line {lineno}: {line!r}")
        name = m.group("name") + (m.group("labels") or "")
        out[name] = float(m.group("value"))
        if exemplars is not None and m.group("exemplar"):
            ex = _EXEMPLAR_RE.match(m.group("exemplar"))
            if ex is not None:
                exemplars[name] = {
                    "trace_id": ex.group("trace_id"),
                    "value": float(ex.group("value")),
                }
    return out


#: The process-wide registry used by all built-in instrumentation.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY
