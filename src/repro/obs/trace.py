"""Low-overhead hierarchical span tracer with context propagation.

The tracer answers "where did the time go" for *real* executions the
same way :mod:`repro.runtime.perfsim` answers it for simulated ones:
every instrumented region opens a :func:`span` named after the paper's
routine vocabulary (``NLMASS``, ``PTP_Z``, …), spans nest via a
per-thread stack (a simulated-MPI rank is a thread, or the main thread
of a forked process whose finished spans the launcher's tracer
adopts — :meth:`Tracer.adopt`; the fork keeps the clock anchor, so both
are on one time axis), and all timestamps come from the shared
:mod:`~repro.obs.timebase` so spans merge cleanly with journal events.

Disabled is the default and costs almost nothing: :func:`span` returns a
shared no-op context manager after a single attribute check — no
allocation, no clock read.  Production code can therefore instrument
hot loops unconditionally; ``tests/test_obs.py`` keeps that honest as
counts (no span built, nothing allocated) and the ledger's
``obs.trace_overhead_ratio`` as a ratio.

Spans carry **trace context**: every span gets a ``span_id``, inherits
the ``trace_id``/parent of the innermost open span on its thread, and —
when no span is open — falls back to the thread's bound
:class:`TraceContext`.  The context crosses thread boundaries explicitly
(:func:`current_context` captured by the spawner,
``set_context(trace=...)`` bound by the spawned thread — the simulated
MPI ranks in :func:`repro.par.comm.run_ranks` do exactly this), so one
forecast request submitted to the service renders as a single trace tree
from admission through every rank's step/halo/checkpoint spans.

Usage::

    from repro.obs import trace

    trace.enable()
    with trace.context(trace.TraceContext("req-1")):
        with trace.span("NLMASS", cat="compute", level=1):
            ...
    trace.get_tracer().export()   # list of span dicts, or use repro.obs.export
"""

from __future__ import annotations

import contextlib
import itertools
import threading

from repro.obs.timebase import TIMEBASE

#: Span categories used by the built-in instrumentation.
CAT_COMPUTE = "compute"
CAT_COMM = "comm"
CAT_PERSIST = "persist"
CAT_RESILIENCE = "resilience"
CAT_STEP = "step"


class _NoopSpan:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_kw) -> None:
        pass


_NOOP = _NoopSpan()

#: Public shared no-op span: lets instrumented call sites that already
#: know telemetry is off (a hoisted ``enabled`` check around a hot loop)
#: skip even the kwargs packing of :func:`span`.
NOOP_SPAN = _NOOP


class TraceContext:
    """The propagated identity of one request's trace.

    ``trace_id`` names the whole tree (the service uses the request id);
    ``parent_span_id`` is the span the next root-level span on a bound
    thread should hang under.  Immutable by convention — bind a fresh
    one instead of mutating.
    """

    __slots__ = ("trace_id", "parent_span_id")

    def __init__(self, trace_id: str,
                 parent_span_id: str | None = None) -> None:
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TraceContext(trace_id={self.trace_id!r}, "
                f"parent_span_id={self.parent_span_id!r})")


class Span:
    """One live (then finished) traced region."""

    __slots__ = ("name", "cat", "rank", "tid", "ts_us", "dur_us",
                 "depth", "args", "trace_id", "span_id", "parent_id",
                 "_tracer")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: dict | None) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args or None
        self.dur_us = 0.0
        tls = tracer._tls_state()
        self.rank = tls.rank
        self.tid = tls.tid
        self.depth = len(tls.stack)
        self.span_id = f"s{next(tracer._span_ids)}"
        if tls.stack:
            parent = tls.stack[-1]
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        elif tls.ctx_stack:
            ctx = tls.ctx_stack[-1]
            self.trace_id = ctx.trace_id
            self.parent_id = ctx.parent_span_id
        else:
            self.trace_id = None
            self.parent_id = None
        tls.stack.append(self)
        self.ts_us = TIMEBASE.mono_us()

    def set(self, **kw) -> None:
        """Attach key/value detail to the span."""
        if self.args is None:
            self.args = {}
        self.args.update(kw)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *_exc) -> bool:
        self.dur_us = TIMEBASE.mono_us() - self.ts_us
        tls = self._tracer._tls_state()
        if tls.stack and tls.stack[-1] is self:
            tls.stack.pop()
        tls.buffer.append(self)
        return False


#: What :meth:`Tracer.rows` carries of a span.
_ROW = tuple(f for f in Span.__slots__ if f != "_tracer")


class _TlsState(threading.local):
    """Per-thread span stack, output buffer, and propagated context."""

    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.buffer: list[Span] = []
        self.rank: int | None = None
        self.tid: int = threading.get_ident()
        self.registered = False
        self.ctx_stack: list[TraceContext] = []


#: Sentinel distinguishing "not passed" from an explicit ``None``.
_UNSET = object()


class Tracer:
    """Span collector; one process-wide instance lives in this module."""

    def __init__(self) -> None:
        self.enabled = False
        self._tls = _TlsState()
        self._lock = threading.Lock()
        self._buffers: list[list[Span]] = []
        self._drained: list[Span] = []
        self._span_ids = itertools.count(1)

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._buffers.clear()
            self._drained.clear()
        self._tls = _TlsState()
        self._span_ids = itertools.count(1)

    def forked(self, trace: TraceContext | None) -> None:
        """Start over in a forked child, under the launcher's *trace*.

        The parent's finished spans were copied by the fork and stay the
        parent's to export.  The id counter runs on, so no span of this
        process shares an id with one that was open at the fork — which
        is what lets :meth:`adopt` tell the child's own parents from the
        launcher's.
        """
        ids = self._span_ids
        self.clear()
        self._span_ids = ids
        self.set_context(trace=trace)

    # -- context ---------------------------------------------------------

    def _tls_state(self) -> _TlsState:
        tls = self._tls
        if not tls.registered:
            with self._lock:
                self._buffers.append(tls.buffer)
            tls.registered = True
        return tls

    def set_context(self, rank: int | None = None, trace=_UNSET) -> None:
        """Bind rank (and optionally trace) context to the calling thread.

        ``trace`` rebinds the thread's base :class:`TraceContext` (or
        clears it with ``None``); omitting it leaves the current trace
        binding untouched, so the rank threads' ``set_context(rank=r)``
        never loses the request context handed to them at spawn.
        """
        tls = self._tls_state()
        tls.rank = rank
        if trace is not _UNSET:
            tls.ctx_stack[:] = [trace] if trace is not None else []

    @contextlib.contextmanager
    def context(self, ctx: TraceContext):
        """Scope *ctx* over the calling thread's root-level spans."""
        tls = self._tls_state()
        tls.ctx_stack.append(ctx)
        try:
            yield ctx
        finally:
            tls.ctx_stack.pop()

    def bound_rank(self) -> int | None:
        """The rank bound to the calling thread's spans, if any."""
        return self._tls_state().rank

    def current_context(self) -> TraceContext | None:
        """The context a child thread should inherit from this thread.

        The innermost *open* span wins (its id becomes the child's
        parent), falling back to the thread's bound context; ``None``
        when neither exists (e.g. the tracer never ran on this thread).
        """
        tls = self._tls_state()
        if tls.stack:
            top = tls.stack[-1]
            if top.trace_id is not None:
                return TraceContext(top.trace_id, top.span_id)
        return tls.ctx_stack[-1] if tls.ctx_stack else None

    # -- recording -------------------------------------------------------

    def span(self, name: str, cat: str = CAT_COMPUTE, **args):
        """Open a span; returns a no-op when the tracer is disabled."""
        if not self.enabled:
            return _NOOP
        return Span(self, name, cat, args or None)

    def instant(self, name: str, cat: str = CAT_RESILIENCE, **args) -> None:
        """Record a zero-duration marker event (degradation, rollback…)."""
        if not self.enabled:
            return
        sp = Span(self, name, cat, args or None)
        sp.__exit__()
        sp.dur_us = 0.0  # a marker, not a region — exports as ph "i"

    # -- export ----------------------------------------------------------

    def spans(self) -> list[Span]:
        """All finished spans, in start order."""
        with self._lock:
            out = list(self._drained)
            for buf in self._buffers:
                out.extend(buf)
        out.sort(key=lambda s: s.ts_us)
        return out

    def rows(self) -> list[tuple]:
        """Finished spans as picklable rows: what a forked rank sends home."""
        return [tuple(getattr(s, f) for f in _ROW) for s in self.spans()]

    def adopt(self, rows: list[tuple], tid: int, prefix: str) -> None:
        """Take the finished spans of another process (its :meth:`rows`).

        They land on their own track *tid*; *prefix* keeps their span ids
        apart from this process's, and a parent link is rewritten with it
        only when it points at one of the adopted spans — a link to a
        span that was open here when that process forked stays as it is.
        """
        own = {row[_ROW.index("span_id")] for row in rows}
        adopted = []
        for row in rows:
            s = Span.__new__(Span)
            for f, v in zip(_ROW, row):
                setattr(s, f, v)
            s._tracer = self
            s.tid = tid
            if s.parent_id in own:
                s.parent_id = prefix + s.parent_id
            s.span_id = prefix + s.span_id
            adopted.append(s)
        with self._lock:
            self._drained.extend(adopted)

    def export(self) -> list[dict]:
        """Finished spans as plain dicts (JSON-ready)."""
        out = []
        for s in self.spans():
            d = {
                "name": s.name,
                "cat": s.cat,
                "rank": s.rank,
                "tid": s.tid,
                "ts_us": s.ts_us,
                "dur_us": s.dur_us,
                "depth": s.depth,
                "ts_wall": TIMEBASE.wall_of(s.ts_us),
            }
            if s.trace_id is not None:
                d["trace_id"] = s.trace_id
                d["span_id"] = s.span_id
                if s.parent_id is not None:
                    d["parent_id"] = s.parent_id
            if s.args:
                d["args"] = s.args
            out.append(d)
        return out


#: The process-wide tracer used by all built-in instrumentation.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def enable() -> None:
    _TRACER.enable()


def disable() -> None:
    _TRACER.disable()


def clear() -> None:
    _TRACER.clear()


def set_context(rank: int | None = None, trace=_UNSET) -> None:
    _TRACER.set_context(rank=rank, trace=trace)


def context(ctx: TraceContext):
    """Scope *ctx* over the calling thread's root-level spans."""
    return _TRACER.context(ctx)


def current_context() -> TraceContext | None:
    """Context a spawned thread should inherit (see :class:`Tracer`)."""
    return _TRACER.current_context()


def span(name: str, cat: str = CAT_COMPUTE, **args):
    """Module-level span entry point — the one hot paths call.

    The disabled path is a single attribute check returning a shared
    no-op object; see the no-span guard in ``tests/test_obs.py``.
    """
    t = _TRACER
    if not t.enabled:
        return _NOOP
    return Span(t, name, cat, args or None)


def instant(name: str, cat: str = CAT_RESILIENCE, **args) -> None:
    _TRACER.instant(name, cat, **args)
