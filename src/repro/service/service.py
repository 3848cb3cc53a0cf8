"""The overload-safe multi-tenant forecast service.

:class:`ForecastService` sits above the single-run stack
(``RTiModel`` + resilience) and stays correct and predictable when more
forecasts are demanded than the hardware can deliver.  Its contract:

* **No silent deadline misses.**  A request is either rejected at
  submission with an explicit :class:`~repro.errors.ServiceOverloadError`
  (the 429 equivalent), shed later with an explicit outcome, or it
  completes by its deadline — possibly degraded through the resilience
  layer's ladder, and always *labelled* as degraded.
* **Overload degrades the least important work first.**  Admission
  projects completion via the cost model + live calibration
  (:mod:`repro.service.admission`); when the projection overruns, the
  request class's degradation ladder is walked before rejecting, and
  queued lower-priority work is degraded/shed before higher-priority
  work is ever refused.
* **Bounded everything.**  The EDF queue has a hard capacity, tenants
  have bulkhead quotas, failing backends trip circuit breakers, and
  identical concurrent requests collapse into one run (single-flight)
  with completed full-fidelity results served from a bounded LRU cache.

The service is a deterministic discrete-event system on a pluggable
clock: ``submit()`` at arrival instants, ``advance_to()`` /
``run_until_idle()`` to move time.  Execution cost is priced in the
same simulated-seconds currency as
:class:`repro.resilience.clock.SimulatedClock`, so one soak run is
reproducible bit-for-bit from its seed.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from repro import guards
from repro.errors import (
    BackendUnavailableError,
    DeadlineUnmeetableError,
    QueueFullError,
    ServiceError,
    ServiceOverloadError,
    TenantQuotaError,
)
from repro.obs.flight import FlightBook
from repro.obs.log import EventRing, ServiceEvent, get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import TraceContext, get_tracer
from repro.resilience.clock import PLATFORM
from repro.service.admission import CostEstimator, check_scenario, project_schedule
from repro.service.breaker import FAILURE_THRESHOLD, CircuitBreaker
from repro.service.cache import DONE, SingleFlightCache
from repro.service.clock import VirtualClock
from repro.service.queue import BoundedDeadlineQueue
from repro.service.request import (
    FULL_FIDELITY,
    Fidelity,
    ForecastRequest,
    ladder_fidelities,
)

_LOG = get_logger("service")

#: Latency histogram buckets [simulated s] — forecast latencies run from
#: seconds (cache hits, tiny scenarios) to many minutes under load.
LATENCY_BUCKETS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)

#: Fraction of each deadline the admission projection must fit into —
#: headroom for estimation error (the un-modelled tail).
ADMISSION_MARGIN = 0.8
#: Newest :class:`ServiceEvent`\ s kept in memory (older dropped and
#: counted) — long soaks must not grow without bound.
EVENT_BUFFER = 4096

# Ticket lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE_OK = "done"
CACHED = "cached"
JOINED = "joined"
SHED = "shed"
FAILED = "failed"

#: How a joiner's ending reads when its primary's flight ends.
_JOINED_DETAIL = {
    DONE_OK: "",
    SHED: "primary of joined flight was shed",
    FAILED: "primary of joined flight failed",
}


@dataclass
class ServiceConfig:
    """What a deployment sizes: workers, queue and per-tenant bulkhead."""

    workers: int = 2
    queue_capacity: int = 32
    #: Max queued + running primaries per tenant (the bulkhead).
    tenant_quota: int = 8

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError("need at least one worker")
        if self.tenant_quota < 1:
            raise ServiceError("tenant_quota must be >= 1")


def _margin_deadline(request: ForecastRequest) -> float:
    """Latest completion admission plans for: the deadline less the
    :data:`ADMISSION_MARGIN` headroom."""
    return request.submitted_s + request.deadline_s * ADMISSION_MARGIN


@dataclass
class Ticket:
    """One admitted request's journey through the service."""

    request: ForecastRequest
    status: str = QUEUED
    #: Planned execution fidelity (admission may pre-degrade it).
    planned: Fidelity = FULL_FIDELITY
    #: Remaining ladder below ``planned``, for later relief rounds.
    ladder: list = field(default_factory=list)
    est_s: float = 0.0
    result: object = None
    error: BaseException | None = None
    enqueued_s: float | None = None
    started_s: float | None = None
    finished_s: float | None = None
    attempts: int = 0
    outcome_detail: str = ""
    #: For joined tickets: the primary whose run resolves us.
    joined_to: "Ticket | None" = None

    @property
    def trace_id(self) -> str:
        """Trace identity of this request's span tree: the request id."""
        return self.request.request_id

    @property
    def deadline_abs(self) -> float:
        return self.request.deadline_abs

    @property
    def class_rank(self) -> int:
        return self.request.class_rank

    @property
    def latency_s(self) -> float | None:
        if self.finished_s is None or self.request.submitted_s is None:
            return None
        return self.finished_s - self.request.submitted_s

    @property
    def deadline_met(self) -> bool | None:
        if self.finished_s is None:
            return None
        return self.finished_s <= self.deadline_abs + 1e-9


@dataclass
class _Worker:
    wid: int
    ticket: Ticket | None = None
    result: object = None
    finish_s: float = 0.0

    @property
    def idle(self) -> bool:
        return self.ticket is None


class ForecastService:
    """Admission control, EDF queueing, shedding, caching, breakers.

    Parameters
    ----------
    backend:
        Anything with ``run(request, budget_s) -> BackendResult``, behind
        one circuit breaker named after its ``name`` ("default" without
        one).
    estimator:
        Shared :class:`~repro.service.admission.CostEstimator`; created
        for :data:`PLATFORM` when omitted.
    clock:
        Service time source; defaults to a fresh
        :class:`~repro.service.clock.VirtualClock`.
    slo:
        Optional :class:`repro.obs.slo.SLOEngine` fed one
        availability / latency / freshness outcome per settled request,
        on the service's virtual clock.
    flight_dir:
        Directory for dumped flight recordings (typically
        ``<rundir>/flight``); recordings stay in-memory-only without it.
    """

    def __init__(
        self,
        backend,
        config: ServiceConfig | None = None,
        estimator: CostEstimator | None = None,
        clock=None,
        slo=None,
        flight_dir=None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.backend = backend
        self.estimator = estimator or CostEstimator()
        self.clock = clock or VirtualClock()
        self.queue = BoundedDeadlineQueue(self.config.queue_capacity)
        self.cache = SingleFlightCache()
        self.breaker = CircuitBreaker(getattr(backend, "name", "default"))
        self._workers = [_Worker(i) for i in range(self.config.workers)]
        self._tenant_inflight: dict[str, int] = {}
        self.tickets: list[Ticket] = []
        self.events = EventRing(EVENT_BUFFER)
        self.slo = slo
        self.flight = FlightBook(out_dir=flight_dir)
        self._event_budget = 1_000_000

    # -- small helpers ---------------------------------------------------

    def _now(self) -> float:
        return self.clock.now()

    def _note(self, kind: str, request_id: str, detail: str = "") -> None:
        ev = ServiceEvent(self._now(), kind, request_id, detail)
        if len(self.events) == self.events.capacity:
            self._counter(
                "repro_service_events_dropped_total",
                "service events aged out of the bounded in-memory ring",
            ).inc()
        self.events.append(ev)
        # The same record lands on the request's own flight recorder (a
        # no-op for requests without an open recorder).
        self.flight.add(ev)

    def _record_slo_completion(self, ticket: Ticket, result, now: float):
        """One settled-well request: availability good, latency and
        freshness judged on how it actually landed."""
        if self.slo is None:
            return
        self.slo.record("availability", now, True)
        self.slo.record("latency", now, bool(ticket.deadline_met))
        self.slo.record("freshness", now, result.fidelity.is_full)
        # A guard's objective is conditioned on the run having carried
        # that guard's verdict at all: a backend without in-situ
        # sampling (or with the ABFT layer off) contributes no events,
        # so the objective reads "no traffic" instead of silently
        # perfect (or silently burning).
        for kind in guards.KINDS:
            verdict = kind.of(result)
            if verdict is not None and self.slo.knows(kind.slo):
                self.slo.record(kind.slo, now, verdict in kind.slo_good)

    def _counter(self, name: str, help: str, labels: dict | None = None):
        return get_registry().counter(name, help, labels=labels)

    def _gauge(self, name: str, help: str, labels: dict | None = None):
        return get_registry().gauge(name, help, labels=labels)

    def _set_queue_gauges(self) -> None:
        self._gauge(
            "repro_service_queue_depth",
            "admitted requests waiting for a worker",
        ).set(len(self.queue))
        self._gauge(
            "repro_service_queue_depth_peak",
            "high-water mark of the admission queue",
        ).set(self.queue.peak_depth)

    def _set_breaker_gauge(self) -> None:
        self._gauge(
            "repro_service_breaker_state",
            "circuit state per backend (0 closed, 1 half-open, 2 open)",
            labels={"backend": self.breaker.name},
        ).set(self.breaker.state_code)

    def _reject(self, request: ForecastRequest, exc: ServiceOverloadError):
        self._counter(
            "repro_service_rejected_total",
            "requests refused at admission, by reason",
            labels={"reason": type(exc).__name__},
        ).inc()
        self._note("reject", request.request_id,
                   f"{type(exc).__name__}: {exc}")
        self.flight.settle(
            request.request_id,
            outcome=f"rejected: {type(exc).__name__}", dump=True,
        )
        raise exc

    # -- admission -------------------------------------------------------

    def submit(self, request: ForecastRequest) -> Ticket:
        """Admit, join, serve from cache, or explicitly refuse.

        Returns a :class:`Ticket`; raises a
        :class:`~repro.errors.ServiceOverloadError` subclass when the
        request cannot be accepted without breaking promises already
        made to admitted work; a plain ``ServiceError`` for a scenario
        the scenario builder refuses.
        """
        now = self._now()
        key = request.cache_key(PLATFORM)
        entry = self.cache.lookup(key)
        if entry is None:  # a known scenario was checked on first submit
            check_scenario(request.scenario)
        request.submitted_s = now
        self.flight.open(request.request_id, **request.brief())
        self._counter(
            "repro_service_requests_total", "submissions by class",
            labels={"class": request.klass},
        ).inc()

        if entry is not None and entry.state == DONE and entry.error is None:
            ticket = Ticket(request)
            self.cache.record_hit(entry)
            self._counter(
                "repro_service_cache_hits_total",
                "requests served from the result cache",
            ).inc()
            self.tickets.append(ticket)
            self._note("cache_hit", request.request_id, key[:12])
            self._settle(ticket, CACHED, now, entry.result,
                         "served from result cache")
            return ticket
        if entry is not None and entry.state != DONE:
            # Single-flight join: piggyback on the identical in-flight
            # computation — but only if that flight lands inside this
            # request's own deadline.  For a still-queued primary the
            # schedule projection is optimistic (dispatch order is
            # least-laxity, not the projection's EDF), so fall back on
            # the one hard guarantee queued work has: it completes by
            # its margin deadline or is shed.
            projected = self._projected_finish(entry.primary)
            if entry.primary.status == QUEUED:
                projected = max(
                    projected if projected is not None else 0.0,
                    _margin_deadline(entry.primary.request),
                )
            if projected is not None and projected > _margin_deadline(request):
                self._reject(request, DeadlineUnmeetableError(
                    f"identical computation in flight lands at "
                    f"t={projected:.1f}s, after the request deadline",
                    retry_after_s=max(0.0, projected - now),
                ))
            ticket = Ticket(request, status=JOINED, joined_to=entry.primary)
            self.cache.join(entry, ticket)
            self._counter(
                "repro_service_singleflight_joins_total",
                "requests deduplicated onto an in-flight identical run",
            ).inc()
            self.tickets.append(ticket)
            self._note("singleflight_join", request.request_id, key[:12])
            return ticket

        # Bulkhead: one tenant cannot occupy the whole service.
        inflight = self._tenant_inflight.get(request.tenant, 0)
        if inflight >= self.config.tenant_quota:
            self._reject(request, TenantQuotaError(
                f"tenant {request.tenant!r} already has {inflight} "
                f"requests in flight (quota {self.config.tenant_quota})"
            ))

        # Fail fast when the backend can currently execute nothing.
        retry_s = self.breaker.retry_after_s(now)
        if not self.breaker.would_allow(now):
            self._reject(request, BackendUnavailableError(
                "every backend's circuit breaker is open",
                retry_after_s=retry_s,
            ))

        fidelity, est, ladder = self._plan_fidelity(request)
        ticket = Ticket(request, planned=fidelity, ladder=ladder, est_s=est)
        if not fidelity.is_full:
            for action in fidelity.actions():
                self._counter(
                    "repro_service_degraded_admits_total",
                    "admissions planned below full fidelity, by action",
                    labels={"action": action},
                ).inc()

        if self.queue.full:
            self._shed_for_room(request)
        ticket.enqueued_s = now
        self.queue.push(ticket)
        self.cache.begin(key, ticket)
        self._tenant_inflight[request.tenant] = inflight + 1
        self.tickets.append(ticket)
        self._counter(
            "repro_service_accepted_total", "admissions by class",
            labels={"class": request.klass},
        ).inc()
        self._note(
            "admit", request.request_id,
            f"class={request.klass} fidelity={fidelity.tag} "
            f"est={est:.1f}s deadline=+{request.deadline_s:g}s",
        )
        self.flight.note(
            request.request_id, "queue_depth", t_service=now,
            depth=len(self.queue), capacity=self.queue.capacity,
        )
        self._set_queue_gauges()
        self._relieve_lower_priority(ticket)
        self._dispatch()
        return ticket

    def _plan_fidelity(
        self, request: ForecastRequest
    ) -> tuple[Fidelity, float, list[Fidelity]]:
        """Mildest fidelity whose projected completion meets the deadline,
        its cost estimate, and the ladder left below it.

        Walks the class's ladder; at each rung the whole tentative EDF
        schedule is projected, and the rung is accepted when the new
        request fits without pushing any *equal-or-higher-priority*
        admitted request past its margin deadline (lower-priority
        victims are relieved after admission).  Exhausting the ladder
        raises :class:`~repro.errors.DeadlineUnmeetableError`.
        """
        now = self._now()
        margin_abs = _margin_deadline(request)
        candidates = [FULL_FIDELITY] + ladder_fidelities(
            request.allowed_actions,
            self.estimator.max_levels_droppable(request.scenario),
        )
        best_alone: float | None = None
        for i, fid in enumerate(candidates):
            est = self.estimator.estimate_s(request.scenario, fid)
            if now + est > margin_abs:
                continue  # infeasible even on an idle service
            if best_alone is None:
                best_alone = est
            tentative = Ticket(request, planned=fid, est_s=est)
            violated = self._violations(extra=tentative)
            if tentative in violated:
                continue  # queue ahead pushes us past the deadline
            if any(
                t.class_rank <= request.class_rank for t in violated
            ):
                # Fitting this rung would break a promise to work at
                # least as important; degrading ourselves further can
                # only shrink our footprint, so keep walking.
                continue
            return fid, est, candidates[i + 1:]
        if best_alone is None:
            detail = (
                f"even the most degraded fidelity the {request.klass!r} "
                f"class allows cannot finish inside "
                f"{request.deadline_s:g}s"
            )
        else:
            detail = (
                "projected completion misses the deadline behind the "
                "admitted queue at every fidelity the "
                f"{request.klass!r} class allows"
            )
        raise_exc = DeadlineUnmeetableError(
            detail, retry_after_s=self._earliest_capacity_s(now)
        )
        self._reject(request, raise_exc)

    def _earliest_capacity_s(self, now: float) -> float | None:
        busy = [w.finish_s for w in self._workers if not w.idle]
        if not busy:
            return None
        return max(0.0, min(busy) - now)

    def _worker_avail(self, now: float) -> list[float]:
        return [
            now if w.idle else max(now, w.finish_s) for w in self._workers
        ]

    def _violations(self, extra: Ticket | None = None) -> list[Ticket]:
        """Queued tickets whose projected finish misses their margin
        deadline under EDF list scheduling (optionally with *extra*
        inserted at its EDF position)."""
        now = self._now()
        entries = self.queue.entries()
        if extra is not None:
            key = (extra.deadline_abs, extra.class_rank)
            at = len(entries)
            for i, t in enumerate(entries):
                if (t.deadline_abs, t.class_rank) > key:
                    at = i
                    break
            entries = entries[:at] + [extra] + entries[at:]
        projected = project_schedule(
            now, self._worker_avail(now), entries
        )
        return [
            t for t, fin in projected
            if fin > _margin_deadline(t.request) + 1e-9
        ]

    def _relieve_lower_priority(self, new: Ticket) -> None:
        """Degrade, then shed, lower-priority queued work the new
        admission pushed past its deadline — never the other way round."""
        for _ in range(4 * self.config.queue_capacity):
            victims = [
                t for t in self._violations()
                if t is not new and t.class_rank > new.class_rank
            ]
            if not victims:
                return
            victim = max(
                victims, key=lambda t: (t.class_rank, t.deadline_abs)
            )
            if victim.ladder:
                fid = victim.ladder.pop(0)
                victim.planned = fid
                victim.est_s = self.estimator.estimate_s(
                    victim.request.scenario, fid
                )
                action = (fid.actions() or ["degrade"])[-1]
                self._counter(
                    "repro_service_degraded_admits_total",
                    "admissions planned below full fidelity, by action",
                    labels={"action": action},
                ).inc()
                self._note(
                    "degrade_planned", victim.request.request_id,
                    f"-> {fid.tag} to admit {new.request.request_id}",
                )
            else:
                self._shed(victim, stage="relieve",
                           reason=f"displaced by {new.request.request_id}")

    def _shed_for_room(self, incoming: ForecastRequest) -> None:
        """Make queue room for *incoming* by evicting lower-priority
        work, or refuse with :class:`~repro.errors.QueueFullError`."""
        victim = self.queue.shed_candidate(below_rank=incoming.class_rank)
        if victim is None:
            self._reject(incoming, QueueFullError(
                f"queue full ({self.queue.capacity}) with no "
                "lower-priority work to shed",
                retry_after_s=self._earliest_capacity_s(self._now()),
            ))
        self._shed(victim, stage="queue_full",
                   reason=f"evicted for {incoming.request_id}")

    def _shed(self, ticket: Ticket, stage: str, reason: str) -> None:
        """Explicitly drop an admitted request (and its joiners)."""
        self.queue.remove(ticket)
        self._counter(
            "repro_service_shed_total",
            "admitted requests dropped before completion, by stage",
            labels={"stage": stage, "class": ticket.request.klass},
        ).inc()
        self._note("shed", ticket.request.request_id,
                   f"stage={stage} {reason}")
        self._settle(
            ticket, SHED, self._now(),
            ServiceOverloadError(f"request shed: {reason}"),
            f"shed ({stage}): {reason}",
        )
        self._set_queue_gauges()

    def _release_tenant(self, tenant: str) -> None:
        n = self._tenant_inflight.get(tenant, 0)
        if n <= 1:
            self._tenant_inflight.pop(tenant, None)
        else:
            self._tenant_inflight[tenant] = n - 1

    # -- dispatch and completion -----------------------------------------

    def _doom_s(self, ticket: Ticket) -> float:
        """Latest start time after which *ticket* must be shed.

        The margin deadline minus the cheapest execution the class still
        permits (planned fidelity or anything further down its ladder).
        Degradable work has a later doom time than un-degradable work
        with the same deadline, because it can still shrink to fit.
        """
        est = ticket.est_s
        for fid in ticket.ladder:
            est = min(est, self.estimator.estimate_s(
                ticket.request.scenario, fid
            ))
        return _margin_deadline(ticket.request) - est

    def _pick_next(self) -> Ticket:
        """Least-laxity dispatch: run whoever is closest to doom.

        Plain EDF dispatch drains the budget of an un-degradable
        critical request (later deadline, empty ladder) behind
        degradable earlier-deadline work, then sheds the critical at the
        dispatch re-check — exactly the priority inversion the service
        must not have.  Picking the earliest *doom time* instead keeps
        EDF behaviour whenever everyone has slack, and hands the worker
        to the request that cannot wait when slack runs out.
        """
        entries = self.queue.entries()
        ticket = min(
            entries,
            key=lambda t: (self._doom_s(t), t.deadline_abs, t.class_rank),
        )
        self.queue.remove(ticket)
        return ticket

    def _dispatch(self) -> None:
        now = self._now()
        blocked = False  # the breaker refused; stop trying
        for worker in self._workers:
            # A synchronous backend failure leaves the worker idle (and
            # may re-queue the ticket), so keep feeding this worker
            # until it is busy or the queue has nothing runnable.
            while worker.idle and len(self.queue) and not blocked:
                ticket = self._pick_next()
                if not self._prepare_for_dispatch(ticket, now):
                    continue  # shed; try the next queued ticket
                if not self.breaker.allow(now):
                    # Wait for a breaker cooldown or a completion.
                    self.queue.push(ticket)
                    blocked = True
                    break
                self._set_breaker_gauge()
                self._execute(worker, ticket, now)
        self._set_queue_gauges()

    def _prepare_for_dispatch(self, ticket: Ticket, now: float) -> bool:
        """Re-check feasibility with the *actual* remaining budget.

        Estimates drift between admission and dispatch (calibration
        updates, earlier-deadline arrivals jumping the EDF queue).
        Rather than running work that is already doomed, walk whatever
        remains of the ticket's ladder; shed explicitly if nothing fits.
        """
        remaining = _margin_deadline(ticket.request) - now
        est = self.estimator.estimate_s(
            ticket.request.scenario, ticket.planned
        )
        if est <= remaining:
            ticket.est_s = est
            return True
        while ticket.ladder:
            fid = ticket.ladder.pop(0)
            est = self.estimator.estimate_s(ticket.request.scenario, fid)
            if est <= remaining:
                ticket.planned = fid
                ticket.est_s = est
                self._note(
                    "degrade_planned", ticket.request.request_id,
                    f"-> {fid.tag} at dispatch "
                    f"({remaining:.1f}s budget left)",
                )
                return True
        self._shed(
            ticket, stage="dispatch",
            reason=f"{remaining:.1f}s of budget left, needs {est:.1f}s",
        )
        return False

    def _execute(self, worker: _Worker, ticket: Ticket, now: float) -> None:
        backend_name = self.breaker.name
        budget = max(0.0, _margin_deadline(ticket.request) - now)
        ticket.status = RUNNING
        ticket.started_s = now
        ticket.attempts += 1
        # Bind the request's trace context around the backend run: the
        # "request" span becomes the root of the request's tree, and any
        # rank threads the backend spawns inherit it via run_ranks.
        tracer = get_tracer()
        with contextlib.ExitStack() as stack:
            if tracer.enabled:
                stack.enter_context(
                    tracer.context(TraceContext(ticket.trace_id))
                )
                stack.enter_context(tracer.span(
                    "request", cat="service",
                    request_id=ticket.request.request_id,
                    klass=ticket.request.klass,
                    backend=backend_name,
                    attempt=ticket.attempts,
                ))
            try:
                result = self.backend.run(ticket.request, budget)
            except ServiceError:
                raise  # configuration problems are bugs, not backend faults
            except Exception as exc:  # noqa: BLE001 - backend fault domain
                self._on_backend_failure(ticket, exc, now)
                return
        worker.ticket = ticket
        worker.result = result
        worker.finish_s = now + max(0.0, result.cost_s)
        self._note(
            "dispatch", ticket.request.request_id,
            f"backend={backend_name} fidelity={result.fidelity.tag} "
            f"cost={result.cost_s:.1f}s finish=t+{result.cost_s:.1f}s",
        )
        self._set_breaker_gauge()

    def _on_backend_failure(
        self, ticket: Ticket, exc: Exception, now: float
    ) -> None:
        br, backend_name = self.breaker, self.breaker.name
        br.record_failure(now)
        self._counter(
            "repro_service_backend_failures_total",
            "backend executions that raised, by backend",
            labels={"backend": backend_name},
        ).inc()
        if br.state == "open":
            self._counter(
                "repro_service_breaker_trips_total",
                "circuit-breaker open transitions, by backend",
                labels={"backend": backend_name},
            ).inc()
            self._note(
                "breaker_open", ticket.request.request_id,
                f"backend={backend_name} after "
                f"{FAILURE_THRESHOLD} failures",
            )
        self._set_breaker_gauge()
        self._note(
            "backend_failure", ticket.request.request_id,
            f"backend={backend_name}: {exc}",
        )
        # One retry, deadline permitting.
        if (
            ticket.attempts <= 1
            and ticket.est_s <= _margin_deadline(ticket.request) - now
        ):
            ticket.status = QUEUED
            self.queue.push(ticket)
            self._note(
                "requeue", ticket.request.request_id,
                f"retry after {backend_name} failure",
            )
            return
        self._counter(
            "repro_service_failed_total",
            "requests that exhausted execution attempts",
        ).inc()
        self._settle(ticket, FAILED, now, exc,
                     f"backend {backend_name} failed: {exc}")

    def _complete(self, worker: _Worker) -> None:
        now = self._now()
        ticket, result = worker.ticket, worker.result
        worker.ticket = None
        worker.result = None
        self.breaker.record_success(now)
        self._set_breaker_gauge()
        # Live calibration: observed cost vs the raw model prediction
        # for the fidelity that actually executed.
        raw = self.estimator.estimate_raw_s(
            ticket.request.scenario, result.fidelity
        )
        self.estimator.observe(raw, result.cost_s)
        self._gauge(
            "repro_service_cost_calibration",
            "EWMA of observed/predicted execution cost",
        ).set(self.estimator.calibration)
        self._settle(ticket, DONE_OK, now, result)
        self._dispatch()

    # -- the one way a request ends --------------------------------------

    def _settle(
        self, ticket: Ticket, status: str, now: float, outcome,
        detail: str = "",
    ) -> None:
        """End *ticket* with *status* at *now*.

        *outcome* is what the request ends with: its result (``DONE_OK``,
        ``CACHED``) or its error (``SHED``, ``FAILED``); *detail* becomes
        :attr:`Ticket.outcome_detail`.  Feeds the SLO engine and settles
        the flight recorder, dumping it on a bad ending.  A primary's
        joiners end the same way through this call, and the primary
        frees its tenant slot.
        """
        ticket.status = status
        ticket.finished_s = now
        ticket.outcome_detail = detail
        rid = ticket.request.request_id
        if status in (SHED, FAILED):
            ticket.error = outcome
            if self.slo is not None:
                # Latency and freshness are completion-conditioned.
                self.slo.record("availability", now, False)
            self.flight.settle(rid, outcome=detail, dump=True)
        else:
            ticket.result = outcome
            ending, dump = (
                ("served from cache", False) if status == CACHED
                else self._meter_completion(ticket, outcome, now)
            )
            self._record_slo_completion(ticket, outcome, now)
            self.flight.settle(rid, outcome=ending, dump=dump)
        if status == CACHED or ticket.joined_to is not None:
            return
        key = ticket.request.cache_key(PLATFORM)
        if status == DONE_OK:
            entry = self.cache.resolve(
                key, outcome, now, cacheable=outcome.fidelity.is_full
            )
        else:
            entry = self.cache.fail(key, outcome)
        for waiter in entry.waiters if entry is not None else ():
            self._settle(waiter, status, now, outcome, _JOINED_DETAIL[status])
        self._release_tenant(ticket.request.tenant)

    def _meter_completion(
        self, ticket: Ticket, result, now: float
    ) -> tuple[str, bool]:
        """Meter and note one completion; returns its flight outcome and
        whether that is a bad ending to dump."""
        # The exemplar links this latency bucket back to the request's
        # trace tree and flight recording.
        get_registry().histogram(
            "repro_service_latency_seconds",
            "submission-to-completion latency",
            labels={"class": ticket.request.klass},
            buckets=LATENCY_BUCKETS,
        ).observe(
            ticket.latency_s,
            trace_id=ticket.trace_id,
        )
        self._counter(
            "repro_service_completed_total", "completions by class",
            labels={"class": ticket.request.klass},
        ).inc()
        if result.degraded:
            self._counter(
                "repro_service_degraded_results_total",
                "completions delivered below full fidelity",
            ).inc()
        met = bool(ticket.deadline_met)
        if not met:
            # Accepted work must never miss silently: meter + log.
            self._counter(
                "repro_service_deadline_misses_total",
                "accepted requests that finished after their deadline",
            ).inc()
            _LOG.warning(
                "deadline_miss",
                request_id=ticket.request.request_id,
                finished_s=round(now, 3),
                deadline_s=round(ticket.deadline_abs, 3),
            )
        self._note(
            "complete", ticket.request.request_id,
            f"fidelity={result.fidelity.tag} "
            f"latency={ticket.latency_s:.1f}s "
            f"deadline_met={ticket.deadline_met}",
        )
        flagged = []
        for kind in guards.KINDS:
            verdict = kind.of(result)
            if verdict is None:
                continue
            self._counter(
                f"repro_service_{kind.name}_verdicts_total",
                f"completions by {kind.title} verdict",
                labels={"verdict": verdict},
            ).inc()
            if verdict != kind.best:
                # Guard events are flight-recorder material: the
                # recording explains *why* the forecast is suspect.
                self._note(kind.attr, ticket.request.request_id, verdict)
            if verdict == kind.worst:
                flagged.append(f" — {kind.name} {kind.worst}".upper())
        # A deadline breach — or a forecast some guard gave its worst
        # verdict (diverged physics, uncorrected corruption) — is a bad
        # ending: dump the recorder so `repro inspect --request` can
        # explain it.
        return (
            f"completed at fidelity {result.fidelity.tag}"
            + ("" if met else " — DEADLINE MISSED")
            + "".join(flagged),
            not met or bool(flagged),
        )

    # -- the event loop --------------------------------------------------

    def next_event_s(self) -> float | None:
        """Time of the next internal event (completion or breaker probe)."""
        times = [w.finish_s for w in self._workers if not w.idle]
        if len(self.queue) and any(w.idle for w in self._workers):
            now = self._now()
            retry_s = self.breaker.retry_after_s(now)
            if not self.breaker.would_allow(now) and retry_s is not None:
                times.append(now + retry_s)
        return min(times) if times else None

    def advance_to(self, t: float) -> None:
        """Advance service time to *t*, applying completions in order."""
        while True:
            due = [
                w for w in self._workers
                if not w.idle and w.finish_s <= t + 1e-12
            ]
            if not due:
                break
            self._event_budget -= 1
            if self._event_budget <= 0:
                raise ServiceError("event budget exhausted (runaway loop?)")
            worker = min(due, key=lambda w: (w.finish_s, w.wid))
            self.clock.advance_to(worker.finish_s)
            self._complete(worker)
        self.clock.advance_to(t)
        self._dispatch()

    def run_until_idle(self) -> float:
        """Drain all queued and running work; returns the final time."""
        while True:
            nxt = self.next_event_s()
            if nxt is None:
                return self._now()
            self.advance_to(max(nxt, self._now()))

    # -- reporting -------------------------------------------------------

    def stats(self) -> dict:
        by_status: dict[str, int] = {}
        for t in self.tickets:
            by_status[t.status] = by_status.get(t.status, 0) + 1
        missed = [
            t.request.request_id
            for t in self.tickets
            if t.status == DONE_OK and not t.deadline_met
        ]
        return {
            "tickets": len(self.tickets),
            "by_status": by_status,
            "queue_depth": len(self.queue),
            "queue_peak_depth": self.queue.peak_depth,
            "deadline_misses": missed,
            "cache": self.cache.stats(),
            "breakers": {
                self.breaker.name: {
                    "state": self.breaker.state, "trips": self.breaker.trips,
                },
            },
            "calibration": self.estimator.calibration,
            "tenants_inflight": dict(self._tenant_inflight),
            "events_dropped": self.events.dropped,
            "flight": self.flight.stats(),
        }

    def _projected_finish(self, ticket: Ticket) -> float | None:
        """Best estimate of when *ticket*'s run lands."""
        if ticket.finished_s is not None:
            return ticket.finished_s
        if ticket.status == RUNNING:
            for w in self._workers:
                if w.ticket is ticket:
                    return w.finish_s
            return None
        now = self._now()
        for t, fin in project_schedule(
            now, self._worker_avail(now), self.queue.entries()
        ):
            if t is ticket:
                return fin
        return None
