"""Tests for request-scoped observability.

Covers trace-context propagation (span trees keyed by request id,
cross-thread inheritance into rank workers), the per-request flight
recorder (bounded rings, bad-ending dumps, the ``inspect --request``
view), the SLO engine (attainment, error budgets, multi-window
burn-rate alerts, the ``repro slo`` gate), the service's bounded event
ring, Chrome-trace service instants, and the soak run-directory
artifacts tying them all together.
"""

from __future__ import annotations

import contextlib
import json

import pytest

import repro.obs as obs
from repro import cli
from repro.errors import PersistError, ServiceOverloadError
from repro.obs import flight
from repro.obs import slo as slo_module
from repro.obs import trace as obstrace
from repro.obs.export import service_events_to_chrome
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FlightBook,
    FlightRecorder,
    flight_path,
    load_flight,
    render_flight,
)
from repro.obs.inspect import inspect_request
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLO,
    SLOEngine,
    BurnWindow,
    load_slo_report,
    render_slo_doc,
)
from repro.obs.trace import TraceContext
from repro.service import service as service_module
from repro.service import (
    EventRing,
    ForecastRequest,
    ForecastService,
    ServiceConfig,
    SimulatedBackend,
    SoakConfig,
    run_soak,
)
from tests.oracles import validate_chrome_trace


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with the telemetry layer dark."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def scenario(tag="s", n_levels=2, base=200_000, n_steps=3600):
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
    slo = cfg.pop("slo", None)
    flight_dir = cfg.pop("flight_dir", None)
    backend = backend or SimulatedBackend(noise=0.0)
    service = ForecastService(
        backend,
        ServiceConfig(**cfg),
        estimator=getattr(backend, "estimator", None),
        slo=slo,
        flight_dir=flight_dir,
    )
    return service, backend


# -- trace-context propagation -------------------------------------------


class TestTraceContext:
    def test_nested_spans_form_one_tree_under_bound_context(self):
        obs.enable()
        tracer = obstrace.get_tracer()
        with tracer.context(TraceContext("req-7")):
            with obstrace.span("request", cat="service"):
                with obstrace.span("backend.run", cat="service"):
                    pass
        spans = {s["name"]: s for s in tracer.export()}
        root, child = spans["request"], spans["backend.run"]
        assert root["trace_id"] == child["trace_id"] == "req-7"
        assert child["parent_id"] == root["span_id"]
        assert "parent_id" not in root

    def test_unbound_spans_carry_no_trace_keys(self):
        obs.enable()
        with obstrace.span("loose"):
            pass
        (d,) = obstrace.get_tracer().export()
        assert "trace_id" not in d and "span_id" not in d

    def test_current_context_points_at_innermost_open_span(self):
        obs.enable()
        tracer = obstrace.get_tracer()
        with tracer.context(TraceContext("req-1")):
            with obstrace.span("request") as s:
                ctx = tracer.current_context()
                assert ctx.trace_id == "req-1"
                assert ctx.parent_span_id == s.span_id
        assert tracer.current_context() is None

    def test_disabled_tracer_records_nothing(self):
        tracer = obstrace.get_tracer()
        assert not tracer.enabled
        with tracer.context(TraceContext("req-1")):
            with obstrace.span("request"):
                pass
        assert tracer.export() == []

    def test_forked_ranks_inherit_spawning_trace(self):
        from repro.par.comm import run_ranks
        from tests.rank_worlds import wait_for_one_thread

        obs.enable()
        tracer = obstrace.get_tracer()

        def fn(comm):
            ctx = tracer.current_context()
            with obstrace.span("rank_work", rank=comm.rank):
                pass
            return None if ctx is None else ctx.trace_id

        wait_for_one_thread()
        with tracer.context(TraceContext("req-42")):
            with obstrace.span("request"):
                seen = run_ranks(2, fn, timeout=30.0)
        assert seen == ["req-42", "req-42"]
        rank_spans = [
            s for s in tracer.export() if s["name"] == "rank_work"
        ]
        assert len(rank_spans) == 2
        assert all(s["trace_id"] == "req-42" for s in rank_spans)


# -- flight recorder ------------------------------------------------------


class TestFlightRecorder:
    def test_ring_bounds_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr(flight, "CAPACITY", 3)
        rec = FlightRecorder("req-1")
        for i in range(5):
            rec.record("tick", f"n={i}", t_service=float(i))
        assert len(rec) == 3
        assert rec.dropped == 2
        kinds = [ev["detail"] for ev in rec.events()]
        assert kinds == ["n=2", "n=3", "n=4"]  # oldest fell off

    def test_book_settled_ring_is_bounded(self, monkeypatch):
        monkeypatch.setattr(flight, "KEEP", 2)
        book = FlightBook()
        for i in range(4):
            book.open(f"req-{i}").record("admit")
            book.settle(f"req-{i}", outcome="done")
        assert book.stats()["settled"] == 2
        assert book.get("req-0") is None  # aged out
        assert book.get("req-3") is not None

    def test_note_unknown_or_settled_id_is_ignored(self):
        book = FlightBook()
        book.note("ghost", "admit")  # no recorder, no error
        book.open("req-1")
        book.settle("req-1", outcome="done")
        book.note("req-1", "late")  # settled: also ignored
        assert len(book.get("req-1")) == 0

    def test_dump_render_inspect_round_trip(self, tmp_path):
        book = FlightBook(out_dir=tmp_path / "flight")
        book.open("req-9", tenant="t0", klass="low")
        book.note("req-9", "admit", "fidelity=full", t_service=1.5)
        book.note("req-9", "shed", "displaced by req-10",
                  t_service=2.5, stage="relieve")
        path = book.settle(
            "req-9", outcome="shed: displaced by req-10", dump=True
        )
        assert path == flight_path(tmp_path, "req-9")
        doc = load_flight(path)
        assert doc["schema"] == FLIGHT_SCHEMA
        text = render_flight(doc)
        assert "outcome         : shed: displaced by req-10" in text
        assert "stage=relieve" in text
        # The CLI entry point renders the same timeline.
        assert inspect_request(tmp_path, "req-9") == text

    def test_inspect_unknown_request_lists_recorded_ids(self, tmp_path):
        book = FlightBook(out_dir=tmp_path / "flight")
        book.open("req-1")
        book.settle("req-1", outcome="failed", dump=True)
        with pytest.raises(PersistError, match="req-1"):
            inspect_request(tmp_path, "req-404")

    def test_inspect_empty_rundir_explains(self, tmp_path):
        with pytest.raises(PersistError, match="no flight recordings"):
            inspect_request(tmp_path, "req-1")


# -- SLO engine -----------------------------------------------------------


class TestSLOEngine:
    def test_attainment_and_budget_math(self):
        eng = SLOEngine(slos=(SLO("avail", "d", 0.90),))
        for i in range(19):
            eng.record("avail", float(i), True)
        eng.record("avail", 19.0, False)
        (s,) = eng.evaluate(20.0).statuses
        # 1 bad of 20 at a 10% budget: half the budget burned.
        assert s.attainment == pytest.approx(0.95)
        assert s.budget_consumed == pytest.approx(0.5)
        assert s.budget_remaining == pytest.approx(0.5)
        assert not s.exhausted

    def test_exhaustion_fails_the_rendered_gate(self):
        eng = SLOEngine(slos=(SLO("avail", "d", 0.90),))
        for i in range(10):
            eng.record("avail", float(i), i < 5)  # 50% bad >> 10% budget
        report = eng.evaluate(10.0)
        assert report.exhausted
        lines, ok = render_slo_doc(report.to_dict())
        assert not ok
        assert any("BUDGET EXHAUSTED" in ln for ln in lines)

    def test_no_traffic_burn_is_undefined_not_alerting(self):
        eng = SLOEngine(slos=(SLO("avail", "d", 0.99),))
        assert eng.burn_rate("avail", 1000.0, 300.0) is None
        (s,) = eng.evaluate(1000.0).statuses
        assert s.burn_rates == {} and s.alerts == []

    def test_alert_requires_both_windows_burning(self, monkeypatch):
        w = BurnWindow("fast", short_s=10.0, long_s=100.0, factor=2.0)
        monkeypatch.setattr(slo_module, "BURN_WINDOWS", (w,))
        eng = SLOEngine(slos=(SLO("avail", "d", 0.90),))
        # Long window: mostly good traffic; short window: a pure burst
        # of failures.  Short burns hard, long stays under factor.
        for i in range(90):
            eng.record("avail", float(i), True)
        for i in range(5):
            eng.record("avail", 95.0 + i, False)
        (s,) = eng.evaluate(100.0).statuses
        assert s.burn_rates["fast_10s"] > 2.0
        assert s.burn_rates["fast_100s"] < 2.0
        assert s.alerts == []  # one window alone never pages
        # Saturate the long window too -> the alert fires.
        for i in range(40):
            eng.record("avail", 100.0 + i, False)
        (s,) = eng.evaluate(140.0).statuses
        assert s.alerts == ["fast"]

    def test_gauges_exported_per_slo_and_window(self, monkeypatch):
        monkeypatch.setattr(slo_module, "BURN_WINDOWS",
                            (BurnWindow("fast", 10.0, 100.0, 2.0),))
        eng = SLOEngine(slos=(SLO("avail", "d", 0.90),))
        eng.record("avail", 1.0, True)
        eng.record("avail", 2.0, False)
        reg = MetricsRegistry()
        eng.export_gauges(5.0, registry=reg)
        samples = reg.sample()
        assert samples['repro_slo_attainment{slo="avail"}'] == 0.5
        assert samples['repro_slo_target{slo="avail"}'] == 0.9
        assert samples[
            'repro_slo_burn_rate{slo="avail",window="fast_10s"}'
        ] == pytest.approx(5.0)
        assert samples['repro_slo_burn_alert{slo="avail"}'] == 1.0

    def test_write_load_render_round_trip(self, tmp_path):
        eng = SLOEngine()
        eng.record("availability", 1.0, True)
        path = eng.write_json(tmp_path / "slo.json", 10.0)
        doc = load_slo_report(path)
        names = [s["name"] for s in doc["slos"]]
        assert names == [s.name for s in DEFAULT_SLOS]
        lines, ok = render_slo_doc(doc)
        assert ok and lines[0].startswith("SLO report at t=10")

    def test_load_rejects_missing_and_foreign_files(self, tmp_path):
        with pytest.raises(PersistError):
            load_slo_report(tmp_path / "nope.json")
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(PersistError, match="not an SLO report"):
            load_slo_report(other)

    def test_unknown_objective_rejected(self):
        eng = SLOEngine()
        with pytest.raises(ValueError, match="unknown SLO"):
            eng.record("durability", 0.0, True)


# -- service integration --------------------------------------------------


class TestServiceRequestObs:
    def test_event_ring_bounded_and_drop_metered(self, monkeypatch):
        ring = EventRing(3)
        for i in range(5):
            ring.append(i)
        assert list(ring) == [2, 3, 4]
        assert len(ring) == 3 and ring.dropped == 2

        monkeypatch.setattr(service_module, "EVENT_BUFFER", 4)
        service, _ = make_service()
        est = service.estimator.estimate_raw_s(scenario("e"))
        for i in range(3):
            service.submit(ForecastRequest(
                scenario=scenario(f"e{i}"), deadline_s=60 * est
            ))
        service.run_until_idle()
        # admit+dispatch+complete per request overflows a 4-slot ring.
        assert len(service.events) == 4
        assert service.events.dropped > 0
        assert service.stats()["events_dropped"] == service.events.dropped
        samples = get_registry().sample()
        assert samples[
            "repro_service_events_dropped_total"
        ] == service.events.dropped

    def test_shed_request_dumps_flight_with_reason(self, tmp_path):
        service, _ = make_service(
            workers=1, queue_capacity=2, flight_dir=tmp_path / "flight"
        )
        est = service.estimator.estimate_raw_s(scenario("s0"))
        service.submit(ForecastRequest(
            scenario=scenario("s0"), deadline_s=100 * est
        ))
        low = service.submit(ForecastRequest(
            scenario=scenario("s1"), deadline_s=100 * est, klass="low"
        ))
        service.submit(ForecastRequest(
            scenario=scenario("s2"), deadline_s=100 * est, klass="normal"
        ))
        high = service.submit(ForecastRequest(
            scenario=scenario("s3"), deadline_s=100 * est, klass="high"
        ))
        assert low.status == "shed"
        rid = low.request.request_id
        doc = load_flight(flight_path(tmp_path, rid))
        assert "shed" in doc["outcome"]
        assert high.request.request_id in doc["outcome"]  # the displacer
        kinds = [ev["kind"] for ev in doc["events"]]
        assert "admit" in kinds and "shed" in kinds
        text = inspect_request(tmp_path, rid)
        assert "shed" in text and high.request.request_id in text
        service.run_until_idle()

    def test_completion_records_slo_and_exemplar(self):
        eng = SLOEngine()
        service, _ = make_service(slo=eng)
        sc = scenario("ok")
        est = service.estimator.estimate_raw_s(sc)
        ticket = service.submit(
            ForecastRequest(scenario=sc, deadline_s=3 * est)
        )
        service.run_until_idle()
        assert ticket.status == "done"
        assert ticket.trace_id == ticket.request.request_id
        by_name = {
            s.name: s for s in eng.evaluate(service.clock.now()).statuses
        }
        assert by_name["availability"].good == 1
        assert by_name["latency"].good == 1
        # The latency histogram bucket exemplar links back to the trace.
        hits = [
            ex for name, h in get_registry().to_dict()["histograms"].items()
            if name.startswith("repro_service_latency_seconds")
            for ex in h.get("exemplars", ()) if ex is not None
        ]
        assert any(
            ex["trace_id"] == ticket.request.request_id for ex in hits
        )

    def test_breaker_storm_exhausts_availability_gate(self, tmp_path, capsys):
        eng = SLOEngine()
        backend = SimulatedBackend(
            noise=0.0, fail_when=lambda r: True
        )
        service, _ = make_service(backend=backend, slo=eng, workers=1)
        est = service.estimator.estimate_raw_s(scenario("f"))
        for i in range(4):
            # Once the storm trips the breaker, later arrivals bounce at
            # admission (an explicit 429, not an SLO event).
            with contextlib.suppress(ServiceOverloadError):
                service.submit(ForecastRequest(
                    scenario=scenario(f"f{i}"), deadline_s=60 * est
                ))
            service.run_until_idle()
        failed = [t for t in service.tickets if t.status == "failed"]
        assert failed
        report = eng.evaluate(service.clock.now())
        by_name = {s.name: s for s in report.statuses}
        assert by_name["availability"].exhausted
        assert report.exhausted
        # ...and the CLI gate flips non-zero on the written report.
        eng.write_json(tmp_path / "slo.json", service.clock.now())
        assert cli.main(["slo", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "BUDGET EXHAUSTED" in out

    def test_request_span_tree_emitted_when_traced(self):
        obs.enable()
        service, _ = make_service()
        sc = scenario("tr")
        est = service.estimator.estimate_raw_s(sc)
        ticket = service.submit(
            ForecastRequest(scenario=sc, deadline_s=3 * est)
        )
        service.run_until_idle()
        rid = ticket.request.request_id
        spans = [
            s for s in obstrace.get_tracer().export()
            if s.get("trace_id") == rid
        ]
        names = {s["name"] for s in spans}
        assert {"request", "backend.run"} <= names
        roots = [s for s in spans if "parent_id" not in s]
        assert len(roots) == 1 and roots[0]["name"] == "request"


# -- chrome export of service decisions -----------------------------------


class TestServiceChromeInstants:
    def test_instants_schema_valid_one_track_per_request(self):
        service, _ = make_service(workers=1, queue_capacity=2)
        est = service.estimator.estimate_raw_s(scenario("c0"))
        for i in range(2):
            service.submit(ForecastRequest(
                scenario=scenario(f"c{i}"), deadline_s=100 * est
            ))
        service.run_until_idle()
        events = service_events_to_chrome(list(service.events))
        doc = {"traceEvents": events}
        assert validate_chrome_trace(doc) == []
        instants = [e for e in events if e["ph"] == "i"]
        assert instants and all(e["pid"] == 2 for e in instants)
        assert all(e["s"] == "t" for e in instants)
        threads = [e for e in events if e["name"] == "thread_name"]
        rids = {e["args"]["name"] for e in threads}
        assert rids == {
            t.request.request_id for t in service.tickets
        }
        # Virtual-clock seconds scaled to trace microseconds.
        for e in instants:
            assert e["ts"] == pytest.approx(
                next(
                    ev.t for ev in service.events
                    if ev.kind == e["name"]
                    and ev.request_id == e["args"]["request_id"]
                ) * 1e6
            )


# -- soak artifacts -------------------------------------------------------


class TestSoakArtifacts:
    def test_soak_rundir_has_slo_flight_trace_metrics(self, tmp_path):
        obs.enable()
        report = run_soak(
            SoakConfig(duration_s=600.0, seed=3), rundir=tmp_path
        )
        assert report.ok
        assert report.slo is not None
        assert (tmp_path / "slo.json").exists()
        assert (tmp_path / "metrics.json").exists()
        doc = load_slo_report(tmp_path / "slo.json")
        assert not doc["exhausted"]
        trace_doc = json.loads((tmp_path / "trace.json").read_text())
        assert validate_chrome_trace(trace_doc) == []
        events = trace_doc["traceEvents"]
        # Service decisions ride along as instants on their own pid...
        assert any(e.get("ph") == "i" and e["pid"] == 2 for e in events)
        # ...and every completed request contributed exactly one span
        # tree: one root (the service-side "request" span) per trace_id.
        by_trace: dict[str, list] = {}
        for e in events:
            tid = (e.get("args") or {}).get("trace_id")
            if tid is not None and e.get("ph") == "X":
                by_trace.setdefault(tid, []).append(e)
        assert by_trace
        for rid, spans in by_trace.items():
            roots = [
                s for s in spans if "parent_id" not in s["args"]
            ]
            assert len(roots) == 1, rid
            assert roots[0]["name"] == "request"
        # Bad endings left flight recordings behind.
        flights = list((tmp_path / "flight").glob("*.json"))
        assert flights
        one = load_flight(flights[0])
        assert one["schema"] == FLIGHT_SCHEMA

    def test_soak_summary_includes_slo_section(self):
        report = run_soak(SoakConfig(duration_s=300.0, seed=1))
        assert "SLO report" in report.summary()
        assert "verdict:" in report.summary()


# -- CLI ------------------------------------------------------------------


class TestRequestObsCLI:
    def test_slo_missing_file_structured_error(self, tmp_path, capsys):
        assert cli.main(["slo", str(tmp_path / "none")]) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["code"] == "no-slo"

    def test_slo_ok_exit_zero(self, tmp_path, capsys):
        eng = SLOEngine()
        eng.record("availability", 1.0, True)
        eng.write_json(tmp_path / "slo.json", 5.0)
        # Accepts the rundir or the file path.
        assert cli.main(["slo", str(tmp_path)]) == 0
        assert cli.main(["slo", str(tmp_path / "slo.json")]) == 0
        assert "all error budgets intact" in capsys.readouterr().out

    def test_inspect_request_cli(self, tmp_path, capsys):
        book = FlightBook(out_dir=tmp_path / "flight")
        book.open("req-5", tenant="t1")
        book.note("req-5", "admit", t_service=0.5)
        book.settle("req-5", outcome="failed: boom", dump=True)
        assert cli.main(
            ["inspect", str(tmp_path), "--request", "req-5"]
        ) == 0
        out = capsys.readouterr().out
        assert "flight recorder : req-5" in out
        assert "failed: boom" in out
        assert cli.main(
            ["inspect", str(tmp_path), "--request", "req-6"]
        ) == 5
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["code"] == "no-flight"

    def test_serve_soak_rundir_cli(self, tmp_path, capsys):
        rundir = tmp_path / "run"
        # 600 simulated seconds: enough admitted traffic (~150 events)
        # that the one expected shed stays inside the 1% availability
        # budget; shorter windows make single sheds bust it.
        rc = cli.main([
            "serve", "--soak", "--backend", "sim",
            "--duration", "600", "--seed", "3",
            "--rundir", str(rundir),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SLO report" in out
        assert (rundir / "slo.json").exists()
        assert (rundir / "trace.json").exists()
        assert cli.main(["slo", str(rundir)]) == 0
