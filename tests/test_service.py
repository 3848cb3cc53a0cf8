"""Tests for the overload-safe forecast service (``repro.service``).

Covers the service contract end to end: admission projection and
explicit 429-style rejection, EDF queueing with priority-aware shedding,
per-tenant bulkheads, per-backend circuit breaking, single-flight
result caching, live cost calibration, and the deterministic
3x-capacity soak acceptance run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.obs as obs
from repro import cli
from repro.errors import (
    BackendUnavailableError,
    DeadlineUnmeetableError,
    NumericalError,
    QueueFullError,
    ServiceError,
    ServiceOverloadError,
    TenantQuotaError,
)
from repro.obs.flight import flight_path, load_flight
from repro.obs.metrics import get_registry
from repro.service import (
    FULL_FIDELITY,
    BoundedDeadlineQueue,
    CircuitBreaker,
    CostEstimator,
    Fidelity,
    ForecastRequest,
    ForecastService,
    LocalBackend,
    ServiceConfig,
    SimulatedBackend,
    SingleFlightCache,
    SoakConfig,
    VirtualClock,
    ladder_fidelities,
    run_soak,
    scenario_key,
)
from repro.service import admission, breaker
from repro.service.cache import CAPACITY
from repro.service.service import CACHED, DONE_OK, FAILED, SHED


def scenario(tag="s", n_levels=2, base=200_000, n_steps=3600):
    """An inline-cost scenario with deterministic, sizeable cost."""
    return {
        "grid": f"test-{tag}",
        "cells_by_level": [[base * (lv + 1)] for lv in range(n_levels)],
        "n_steps": n_steps,
        "dt": 1.0,
        "source": {"type": "gaussian", "amplitude": 1.0},
    }


def make_service(backend=None, **cfg):
    cfg.setdefault("workers", 1)
    cfg.setdefault("queue_capacity", 8)
    backend = backend or SimulatedBackend(noise=0.0)
    service = ForecastService(
        backend,
        ServiceConfig(**cfg),
        estimator=getattr(backend, "estimator", None),
    )
    return service, backend


# -- clock ---------------------------------------------------------------


class TestVirtualClock:
    def test_advances_monotonically(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        clock.advance_to(clock.now() + 2.5)
        assert clock.now() == 7.5

    def test_refuses_to_run_backwards(self):
        clock = VirtualClock(start_s=10.0)
        with pytest.raises(ServiceError):
            clock.advance_to(9.0)


# -- requests, identity, ladders -----------------------------------------


class TestRequest:
    def test_content_key_ignores_dict_order(self):
        a = {"grid": "g", "n_steps": 10, "source": {"x": 1, "y": 2}}
        b = {"source": {"y": 2, "x": 1}, "n_steps": 10, "grid": "g"}
        assert scenario_key(a) == scenario_key(b)
        assert scenario_key(a) != scenario_key({**a, "n_steps": 11})
        assert scenario_key(a, "p1") != scenario_key(a, "p2")

    def test_invalid_class_and_deadline_rejected(self):
        with pytest.raises(ServiceError):
            ForecastRequest(scenario=scenario(), deadline_s=60.0,
                            klass="urgent")
        with pytest.raises(ServiceError):
            ForecastRequest(scenario=scenario(), deadline_s=0.0)
        with pytest.raises(ServiceError):
            ForecastRequest(scenario={}, deadline_s=1.0)

    def test_critical_has_no_ladder(self):
        req = ForecastRequest(scenario=scenario(), deadline_s=60.0,
                              klass="critical")
        assert req.allowed_actions == ()
        assert ladder_fidelities(req.allowed_actions, 3) == []

    def test_ladder_costs_monotone_non_increasing(self):
        est = CostEstimator()
        sc = scenario(n_levels=3)
        fids = [FULL_FIDELITY] + ladder_fidelities(
            ("drop_level", "coarsen_output", "finish_early"),
            est.max_levels_droppable(sc),
        )
        costs = [est.estimate_raw_s(sc, f) for f in fids]
        assert all(a >= b for a, b in zip(costs, costs[1:]))
        assert costs[-1] < costs[0]

    def test_round_trips_through_dict(self):
        req = ForecastRequest(scenario=scenario(), deadline_s=30.0,
                              tenant="jma", klass="high")
        clone = ForecastRequest.from_dict(req.to_dict())
        assert clone.request_id == req.request_id
        assert clone.klass == "high" and clone.tenant == "jma"
        assert clone.cache_key("p") == req.cache_key("p")


# -- the EDF queue -------------------------------------------------------


class _Entry:
    def __init__(self, deadline, rank):
        self.deadline_abs = deadline
        self.class_rank = rank


class TestBoundedDeadlineQueue:
    def test_pops_in_deadline_order_ties_by_class(self):
        q = BoundedDeadlineQueue(8)
        late_low = _Entry(20.0, 3)
        early = _Entry(5.0, 2)
        tied_high = _Entry(10.0, 0)
        tied_normal = _Entry(10.0, 2)
        for e in (late_low, tied_normal, early, tied_high):
            q.push(e)
        assert q.entries() == [early, tied_high, tied_normal, late_low]

    def test_bounded(self):
        q = BoundedDeadlineQueue(2)
        q.push(_Entry(1.0, 0))
        q.push(_Entry(2.0, 0))
        assert q.full
        with pytest.raises(ServiceError):
            q.push(_Entry(3.0, 0))
        assert q.peak_depth == 2

    def test_shed_candidate_worst_class_latest_deadline(self):
        q = BoundedDeadlineQueue(8)
        low_a = _Entry(10.0, 3)
        low_b = _Entry(50.0, 3)
        normal = _Entry(99.0, 2)
        q.push(low_a), q.push(low_b), q.push(normal)
        assert q.shed_candidate() is low_b
        # An incoming normal (rank 2) may only displace rank > 2.
        assert q.shed_candidate(below_rank=2) is low_b
        # An incoming low finds no one less important.
        assert q.shed_candidate(below_rank=3) is None

    def test_remove_tombstones(self):
        q = BoundedDeadlineQueue(4)
        a, b = _Entry(1.0, 0), _Entry(2.0, 0)
        q.push(a), q.push(b)
        assert q.remove(a) and not q.remove(a)
        assert len(q) == 1 and q.entries() == [b]


# -- circuit breaker -----------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self, monkeypatch):
        monkeypatch.setattr(breaker, "COOLDOWN_S", 60.0)
        br = CircuitBreaker()
        br.record_failure(0.0)
        br.record_failure(1.0)
        br.record_success(2.0)  # resets the count
        br.record_failure(3.0)
        br.record_failure(4.0)
        assert br.state == "closed"
        br.record_failure(5.0)
        assert br.state == "open" and br.trips == 1
        assert not br.allow(10.0)
        assert br.retry_after_s(10.0) == pytest.approx(55.0)

    def test_half_open_single_probe_then_close_or_reopen(self, monkeypatch):
        monkeypatch.setattr(breaker, "COOLDOWN_S", 60.0)
        br = CircuitBreaker()
        for _ in range(3):
            br.record_failure(0.0)
        assert br.state == "open"
        assert br.allow(61.0)  # the probe
        assert br.state == "half_open"
        assert not br.allow(61.0)  # only one probe at a time
        br.record_failure(61.5)
        assert br.state == "open" and br.trips == 2
        assert br.allow(125.0)
        br.record_success(125.5)
        assert br.state == "closed" and br.state_code == 0


# -- single-flight cache (unit) ------------------------------------------


class TestSingleFlightCache:
    def test_flight_lifecycle_and_lru(self):
        cache = SingleFlightCache()
        e1 = cache.begin("k1", primary="t1")
        cache.join(e1, "t2")
        assert cache.lookup("k1") is e1
        cache.resolve("k1", "result", now=1.0, cacheable=True)
        assert cache.lookup("k1").result == "result"
        for i in range(2, CAPACITY + 2):  # one more than the LRU holds
            cache.begin(f"k{i}", f"t{i + 1}")
            cache.resolve(f"k{i}", f"r{i}", now=float(i), cacheable=True)
        assert cache.lookup("k1") is None  # LRU-evicted
        assert cache.evictions == 1

    def test_uncacheable_resolve_not_stored(self):
        cache = SingleFlightCache()
        cache.begin("k", "t")
        entry = cache.resolve("k", "degraded", now=1.0, cacheable=False)
        assert entry.result == "degraded"  # waiters still get it
        assert cache.lookup("k") is None  # but nothing is stored

    def test_failed_flight_not_stored(self):
        cache = SingleFlightCache()
        entry = cache.begin("k", "t")
        cache.join(entry, "w")
        failed = cache.fail("k", RuntimeError("boom"))
        assert failed.waiters == ["w"]
        assert isinstance(failed.error, RuntimeError)
        assert cache.lookup("k") is None


# -- admission control ---------------------------------------------------


class TestAdmission:
    def test_accepts_and_completes_by_deadline(self):
        service, backend = make_service()
        sc = scenario("a")
        est = service.estimator.estimate_raw_s(sc)
        ticket = service.submit(
            ForecastRequest(scenario=sc, deadline_s=3 * est)
        )
        service.run_until_idle()
        assert ticket.status == "done"
        assert ticket.deadline_met
        assert ticket.result.fidelity.is_full
        assert ticket.latency_s == pytest.approx(est)
        assert backend.runs == 1

    def test_rejects_unmeetable_deadline_explicitly(self):
        service, backend = make_service()
        sc = scenario("b")
        est = service.estimator.estimate_raw_s(sc)
        with pytest.raises(DeadlineUnmeetableError):
            service.submit(ForecastRequest(
                scenario=sc, deadline_s=0.1 * est, klass="critical"
            ))
        assert backend.runs == 0
        assert len(service.queue) == 0
        # The rejection is a 429-style overload signal.
        assert issubclass(DeadlineUnmeetableError, ServiceOverloadError)

    def test_degrades_admission_instead_of_rejecting(self):
        service, backend = make_service()
        sc = scenario("c", n_levels=3)
        est = service.estimator
        full = est.estimate_raw_s(sc)
        dropped = est.estimate_raw_s(sc, Fidelity(levels_dropped=1))
        assert dropped < full
        # Feasible only after dropping a level (margin is 0.8).
        deadline = (full + dropped) / 2 / 0.8
        ticket = service.submit(ForecastRequest(
            scenario=sc, deadline_s=deadline, klass="normal"
        ))
        assert ticket.planned.levels_dropped >= 1
        service.run_until_idle()
        assert ticket.status == "done" and ticket.deadline_met
        assert ticket.result.degraded

    def test_degraded_results_are_not_cached(self):
        service, backend = make_service()
        sc = scenario("d", n_levels=3)
        est = service.estimator
        full = est.estimate_raw_s(sc)
        dropped = est.estimate_raw_s(sc, Fidelity(levels_dropped=1))
        service.submit(ForecastRequest(
            scenario=sc, deadline_s=(full + dropped) / 2 / 0.8
        ))
        service.run_until_idle()
        assert backend.runs == 1
        # Same scenario with a generous budget must re-run at full
        # fidelity, not be served the degraded artifact.
        ticket = service.submit(
            ForecastRequest(scenario=sc, deadline_s=10 * full)
        )
        service.run_until_idle()
        assert backend.runs == 2
        assert ticket.result.fidelity.is_full

    def test_rejects_behind_backlog(self):
        service, _ = make_service(workers=1)
        a, b = scenario("e1"), scenario("e2")
        est = service.estimator.estimate_raw_s(a)
        service.submit(ForecastRequest(scenario=a, deadline_s=3 * est))
        # b's deadline is fine on an idle service but not behind a.
        with pytest.raises(DeadlineUnmeetableError) as exc_info:
            service.submit(ForecastRequest(
                scenario=b, deadline_s=1.2 * est, klass="critical"
            ))
        assert exc_info.value.retry_after_s is not None

    def test_tenant_quota_bulkhead(self):
        service, _ = make_service(workers=1, tenant_quota=2)
        est = service.estimator.estimate_raw_s(scenario("q0"))
        for i in range(2):
            service.submit(ForecastRequest(
                scenario=scenario(f"q{i}"), deadline_s=50 * est,
                tenant="greedy",
            ))
        with pytest.raises(TenantQuotaError):
            service.submit(ForecastRequest(
                scenario=scenario("q2"), deadline_s=50 * est,
                tenant="greedy",
            ))
        # Another tenant is unaffected by the bulkhead.
        ticket = service.submit(ForecastRequest(
            scenario=scenario("q3"), deadline_s=50 * est, tenant="other"
        ))
        assert ticket.status in ("queued", "running")
        service.run_until_idle()


class TestShedding:
    def test_queue_full_sheds_low_before_high(self):
        service, _ = make_service(workers=1, queue_capacity=2)
        est = service.estimator.estimate_raw_s(scenario("s0"))
        running = service.submit(ForecastRequest(
            scenario=scenario("s0"), deadline_s=100 * est
        ))
        low = service.submit(ForecastRequest(
            scenario=scenario("s1"), deadline_s=100 * est, klass="low"
        ))
        normal = service.submit(ForecastRequest(
            scenario=scenario("s2"), deadline_s=100 * est, klass="normal"
        ))
        assert service.queue.full
        high = service.submit(ForecastRequest(
            scenario=scenario("s3"), deadline_s=100 * est, klass="high"
        ))
        # The low-class victim was shed to make room, explicitly.
        assert low.status == "shed"
        assert isinstance(low.error, ServiceOverloadError)
        assert normal.status == "queued"
        service.run_until_idle()
        assert running.status == high.status == normal.status == "done"

    def test_queue_of_equal_priority_rejects_instead(self):
        service, _ = make_service(workers=1, queue_capacity=1)
        est = service.estimator.estimate_raw_s(scenario("t0"))
        service.submit(ForecastRequest(
            scenario=scenario("t0"), deadline_s=100 * est, klass="high"
        ))
        service.submit(ForecastRequest(
            scenario=scenario("t1"), deadline_s=100 * est, klass="high"
        ))
        with pytest.raises(QueueFullError):
            service.submit(ForecastRequest(
                scenario=scenario("t2"), deadline_s=100 * est,
                klass="high",
            ))

    def test_admission_relieves_lower_priority_work(self):
        service, _ = make_service(workers=1, queue_capacity=8)
        sc = scenario("r0", n_levels=3)
        est = service.estimator.estimate_raw_s(sc)
        service.submit(ForecastRequest(
            scenario=sc, deadline_s=3 * est, klass="critical"
        ))
        # Fills the worker; this low request fits only just.
        low = service.submit(ForecastRequest(
            scenario=scenario("r1", n_levels=3), deadline_s=2.9 * est,
            klass="low",
        ))
        assert low.status == "queued"
        # A critical arrival with a tight deadline displaces the low
        # request's slot: low is degraded (or shed), never the critical.
        crit = service.submit(ForecastRequest(
            scenario=scenario("r2", n_levels=3), deadline_s=2.6 * est,
            klass="critical",
        ))
        service.run_until_idle()
        assert crit.status == "done" and crit.deadline_met
        assert low.status in ("done", "shed")
        if low.status == "done":
            assert low.deadline_met


# -- single-flight through the service -----------------------------------


class TestSingleFlightService:
    def test_concurrent_duplicates_run_exactly_once(self):
        service, backend = make_service(workers=1)
        sc = scenario("sf")
        est = service.estimator.estimate_raw_s(sc)
        primary = service.submit(
            ForecastRequest(scenario=sc, deadline_s=5 * est)
        )
        joiner = service.submit(
            ForecastRequest(scenario=sc, deadline_s=5 * est)
        )
        assert joiner.status == "joined"
        assert joiner.joined_to is primary
        service.run_until_idle()
        assert primary.status == joiner.status == "done"
        assert joiner.result.payload == primary.result.payload
        key = primary.request.cache_key(backend.name)
        assert backend.runs_by_key[key] == 1  # exactly once
        # After completion, a third identical request is a cache hit.
        cached = service.submit(
            ForecastRequest(scenario=sc, deadline_s=5 * est)
        )
        assert cached.status == "cached"
        assert cached.latency_s == 0.0
        assert backend.runs == 1

    def test_join_refused_when_flight_lands_too_late(self):
        service, _ = make_service(workers=1)
        sc = scenario("sl")
        est = service.estimator.estimate_raw_s(sc)
        service.submit(ForecastRequest(scenario=sc, deadline_s=5 * est))
        with pytest.raises(DeadlineUnmeetableError):
            service.submit(ForecastRequest(
                scenario=sc, deadline_s=0.5 * est
            ))

    def test_primary_failure_fails_joiners_too(self):
        sc = scenario("pf")
        backend = SimulatedBackend(
            noise=0.0, fail_when=lambda req: req.scenario == sc
        )
        service, _ = make_service(backend=backend)
        est = service.estimator.estimate_raw_s(sc)
        # A healthy run holds the one worker, so the primary queues and
        # the identical request joins its flight before it fails (a
        # backend that raises does so at dispatch, synchronously).
        service.submit(
            ForecastRequest(scenario=scenario("busy"), deadline_s=5 * est)
        )
        primary = service.submit(
            ForecastRequest(scenario=sc, deadline_s=5 * est)
        )
        joiner = service.submit(
            ForecastRequest(scenario=sc, deadline_s=5 * est)
        )
        assert joiner.status == "joined"
        service.run_until_idle()
        assert primary.status == joiner.status == "failed"
        assert primary.attempts == 2  # the one retry failed too
        assert isinstance(joiner.error, NumericalError)
        assert joiner.outcome_detail == "primary of joined flight failed"


class TestEveryEndingSettlesOnce:
    def test_soak_with_failing_backend_and_duplicates(self, tmp_path):
        """Completions, cache hits, sheds and failures — primaries and
        the joiners that end with them — each settle exactly once."""
        obs.reset()
        backend = SimulatedBackend(fail_when=lambda r: round(
            r.scenario["source"]["amplitude"] * 1000
        ) % 9 == 0)
        service = ForecastService(
            backend, ServiceConfig(queue_capacity=8),
            estimator=backend.estimator, flight_dir=tmp_path / "flight",
        )
        run_soak(SoakConfig(
            seed=4, duration_s=600.0, rate_multiplier=4, queue_capacity=8,
            dup_fraction=0.7,
        ), backend=backend, service=service)
        tickets = service.tickets
        assert all(t.status in (DONE_OK, CACHED, SHED, FAILED)
                   and t.finished_s is not None for t in tickets)
        stats = service.stats()
        assert stats["flight"]["live"] == 0
        assert stats["tenants_inflight"] == {}
        assert stats["cache"]["inflight"] == 0
        bad = [t for t in tickets if t.status in ("failed", "shed")]
        joined = {t.outcome_detail for t in bad if t.joined_to is not None}
        assert joined == {
            "primary of joined flight failed",
            "primary of joined flight was shed",
        }
        for t in bad:
            doc = load_flight(flight_path(tmp_path, t.request.request_id))
            assert doc["outcome"] == t.outcome_detail
        samples = get_registry().sample()
        assert samples["repro_service_failed_total"] == sum(
            t.status == "failed" and t.joined_to is None for t in tickets
        )


# -- backend failures and the breaker ------------------------------------


class TestBackendFailureHandling:
    def test_transient_failure_retried_once(self):
        calls = {"n": 0}

        def fail_first(req):
            calls["n"] += 1
            return calls["n"] == 1

        backend = SimulatedBackend(noise=0.0, fail_when=fail_first)
        service, _ = make_service(backend=backend)
        sc = scenario("tf")
        est = service.estimator.estimate_raw_s(sc)
        ticket = service.submit(
            ForecastRequest(scenario=sc, deadline_s=5 * est)
        )
        service.run_until_idle()
        assert ticket.status == "done"
        assert ticket.attempts == 2
        assert service.breaker.state == "closed"

    def test_breaker_opens_then_recovers_via_probe(self):
        backend = SimulatedBackend(noise=0.0, fail_when=lambda req: True)
        service, _ = make_service(backend=backend)
        est = service.estimator.estimate_raw_s(scenario("f0"))
        # 2 requests x 2 attempts = 4 failures; the deadline outlasts the
        # 300 s cooldown, so the second request's retry is the probe.
        for i in range(2):
            t = service.submit(ForecastRequest(
                scenario=scenario(f"f{i}"), deadline_s=1000 * est
            ))
            service.run_until_idle()
            assert t.status == "failed"
        br = service.breaker
        assert br.state == "open" and br.trips >= 1
        # While open, admission fails fast with a retry hint.
        with pytest.raises(BackendUnavailableError) as exc_info:
            service.submit(ForecastRequest(
                scenario=scenario("f9"), deadline_s=50 * est
            ))
        assert exc_info.value.retry_after_s is not None
        # Backend heals; after the cooldown one probe closes the breaker.
        backend.fail_when = None
        service.advance_to(service.clock.now() + 301.0)
        ticket = service.submit(ForecastRequest(
            scenario=scenario("f10"), deadline_s=50 * est
        ))
        service.run_until_idle()
        assert ticket.status == "done"
        assert br.state == "closed"


# -- calibration ---------------------------------------------------------


class TestCalibration:
    def test_estimator_learns_backend_bias(self):
        backend = SimulatedBackend(noise=0.3)
        service, _ = make_service(backend=backend, workers=2)
        est = service.estimator
        assert est.calibration == 1.0
        for i in range(12):
            sc = scenario(f"cal{i}")
            service.submit(ForecastRequest(
                scenario=sc,
                deadline_s=10 * est.estimate_raw_s(sc),
            ))
            service.run_until_idle()
        assert est.observations == 12
        assert 0.5 < est.calibration < 2.0
        assert est.calibration != 1.0

    def test_pathological_observation_clamped(self, monkeypatch):
        monkeypatch.setattr(admission, "ALPHA", 1.0)
        est = CostEstimator()
        est.observe(1.0, 1e9)
        assert est.calibration == 10.0
        est.observe(1.0, 1e-9)
        assert est.calibration == 0.1


# -- the real numerics under the service ---------------------------------


class TestLocalBackend:
    def test_unloaded_result_bitwise_matches_direct_run(self):
        from repro.core import RTiModel, SimulationConfig
        from repro.fault import GaussianSource
        from repro.topo import build_mini_kochi

        mk = build_mini_kochi()
        n_steps = 30
        sc = {
            "grid": "mini-kochi",
            "dt": mk.dt,
            "n_steps": n_steps,
            "source": {
                "type": "gaussian",
                "x0": 4_000.0, "y0": 16_000.0,
                "amplitude": 2.0, "sigma": 2_500.0,
            },
        }
        service, backend = make_service(backend=LocalBackend())
        ticket = service.submit(
            ForecastRequest(scenario=sc, deadline_s=3_600.0)
        )
        service.run_until_idle()
        assert ticket.status == "done"
        assert ticket.result.fidelity.is_full

        direct = RTiModel(
            mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt)
        )
        direct.set_initial_condition(GaussianSource(
            x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0
        ))
        direct.run(n_steps)
        payload = ticket.result.payload
        for bid, st in direct.states.items():
            assert np.array_equal(payload["eta"][bid], st.eta_interior())
        assert payload["max_eta"] == direct.max_eta()

    def test_class_ladder_maps_to_engine_floors(self):
        # A critical request must never lose levels, even under an
        # impossible budget — the engine may only shorten the horizon
        # as its last resort, and the product is labelled degraded.
        sc = {
            "grid": "mini-kochi",
            "n_steps": 60,
            "source": {"type": "gaussian"},
        }
        backend = LocalBackend()
        request = ForecastRequest(
            scenario=sc, deadline_s=1.0, klass="critical"
        )
        result = backend.run(request, budget_s=1e-4)
        from repro.topo import build_mini_kochi

        n_levels = build_mini_kochi().grid.n_levels
        assert result.fidelity.levels_dropped == 0
        assert result.fidelity.output_every == 1
        assert result.payload["eta"]  # a product was still delivered
        assert backend.runs == 1
        assert result.degraded or result.fidelity.is_full
        assert len(result.report.model.grid.levels) == n_levels


# -- the soak acceptance run ---------------------------------------------


class TestSoakAcceptance:
    def test_three_x_capacity_soak_invariants(self):
        report = run_soak(SoakConfig(
            duration_s=1800.0, rate_multiplier=3.0, seed=0
        ))
        assert report.ok, report.summary()
        # Real overload was generated and survived.
        assert report.submitted > 3 * report.config.workers
        assert sum(report.rejected_by_reason.values()) > 0
        assert report.completed > 0
        # No accepted request missed its deadline, none silently.
        assert report.deadline_misses == []
        assert report.integrity_failures == []
        # Queue depth stayed bounded.
        assert report.queue_peak_depth <= report.queue_capacity
        # Shedding respected class order: critical never, low at least
        # as often as high.
        assert report.shed_by_class.get("critical", 0) == 0
        assert (
            report.shed_by_class.get("low", 0)
            >= report.shed_by_class.get("high", 0)
        )
        # Degradation was used before rejection for shedable classes.
        assert report.degraded_results > 0
        # The cache and single-flight absorbed duplicate traffic.
        assert report.cache["hits"] > 0

    def test_soak_is_deterministic(self):
        config = SoakConfig(duration_s=600.0, seed=42)
        a = run_soak(config)
        b = run_soak(SoakConfig(duration_s=600.0, seed=42))
        assert a.summary() == b.summary()
        assert a.final_time_s == b.final_time_s

    def test_different_seeds_differ(self):
        a = run_soak(SoakConfig(duration_s=600.0, seed=1))
        b = run_soak(SoakConfig(duration_s=600.0, seed=2))
        assert a.submitted != b.submitted or a.summary() != b.summary()


# -- configuration validation --------------------------------------------


class TestServiceConfig:
    def test_rejects_bad_envelopes(self):
        with pytest.raises(ServiceError):
            ServiceConfig(workers=0)
        with pytest.raises(ServiceError):
            ServiceConfig(tenant_quota=0)
        with pytest.raises(ServiceError):
            SimulatedBackend(noise=1.5)
        with pytest.raises(ServiceError):
            BoundedDeadlineQueue(0)


# -- CLI -----------------------------------------------------------------


class TestServiceCLI:
    def test_serve_soak_reports_invariants(self, capsys):
        code = cli.main([
            "serve", "--soak", "--duration", "400", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariants: OK" in out
        assert "3x capacity" in out

    def test_serve_soak_exports_metrics(self, tmp_path, capsys):
        path = tmp_path / "soak-metrics.json"
        code = cli.main([
            "serve", "--soak", "--duration", "300", "--seed", "1",
            "--export-metrics", str(path),
        ])
        assert code == 0
        doc = json.loads(path.read_text())
        names = " ".join(doc["counters"]) + " ".join(doc["gauges"])
        assert "repro_service_requests_total" in names
        assert "repro_service_queue_depth_peak" in names

    def test_submit_spool_then_serve(self, tmp_path, capsys):
        spool = tmp_path / "spool.jsonl"
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json.dumps(scenario("cli")))
        for klass in ("high", "low"):
            code = cli.main([
                "submit", "--deadline", "500", "--class", klass,
                "--scenario", str(sc_path), "--spool", str(spool),
            ])
            assert code == 0
        lines = [
            json.loads(line) for line in spool.read_text().splitlines()
        ]
        assert [d["class"] for d in lines] == ["high", "low"]
        code = cli.main([
            "serve", "--requests", str(spool), "--backend", "sim",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "served 2 requests" in out

    @pytest.mark.parametrize("line", [
        '{"at": 0, "scenario": {"grid": "x"}}',
        '[1, 2]',
        '{"at": "soon", "scenario": {"grid": "x"}, "deadline_s": 60}',
        '{"at": 0, "scenario": {"grid": "x"}, "deadline_s": "abc"}',
        '{"at": 0, "scenario": {"grid": "x"}, "deadline_s": 60,'
        ' "class": "vip"}',
        '{"at": 0, "scenario": {"grid": "x"}, "deadline_s": 60}',
    ])
    def test_serve_malformed_request_is_one_error_line(
        self, tmp_path, capsys, line
    ):
        path = tmp_path / "requests.jsonl"
        good = {"at": 0, "scenario": scenario("ok"), "deadline_s": 500}
        path.write_text(json.dumps(good) + "\n" + line + "\n")
        code = cli.main([
            "serve", "--requests", str(path), "--backend", "sim",
        ])
        out = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(out) == 1 and out[0].startswith(f"error: {path}:2: ")

    def test_submit_non_object_scenario_is_one_error_line(
        self, tmp_path, capsys
    ):
        path = tmp_path / "scenario.json"
        path.write_text("[1]")
        code = cli.main([
            "submit", "--deadline", "60", "--scenario", str(path),
        ])
        out = capsys.readouterr().out.splitlines()
        assert code == 2
        assert out == [f"error: {path}: scenario must be a non-empty dict"]

    def test_submit_runs_a_minutes_scenario(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "grid": "mini-kochi", "minutes": 0.01,
            "source": {"type": "gaussian"},
        }))
        code = cli.main([
            "submit", "--deadline", "600", "--scenario", str(path), "--run",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert " done " in out and "max water level" in out

    @pytest.mark.parametrize("command", ["serve", "submit"])
    def test_an_unknown_source_type_is_one_error_line(
        self, tmp_path, capsys, command
    ):
        bad = {"grid": "mini-kochi", "n_steps": 6, "source": {"type": "okada"}}
        path = tmp_path / "in.json"
        if command == "serve":
            path.write_text(json.dumps({"scenario": bad, "deadline_s": 600}))
            # The priced backend never builds a scenario: the refusal
            # comes from the service's door, not from a run.
            argv = ["serve", "--requests", str(path), "--backend", "sim"]
            where = f"{path}:1"
        else:
            path.write_text(json.dumps(bad))
            argv = ["submit", "--deadline", "600", "--scenario", str(path),
                    "--run"]
            where = str(path)
        code = cli.main(argv)
        out = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(out) == 1 and out[0].startswith(f"error: {where}: ")
        assert "'okada'" in out[0]

    def test_argparse_rejects_non_positive_values(self, capsys):
        bad = [
            ["forecast", "--minutes", "-3"],
            ["forecast", "--deadline", "0"],
            ["forecast", "--ranks", "0"],
            ["forecast", "--checkpoint-every", "-1"],
            ["submit", "--deadline", "-5"],
            ["serve", "--soak", "--duration", "0"],
            ["serve", "--workers", "0"],
            ["forecast", "--minutes", "abc"],
        ]
        for argv in bad:
            with pytest.raises(SystemExit) as exc_info:
                cli.main(argv)
            assert exc_info.value.code == 2
            assert "must be > 0" in capsys.readouterr().err or True
