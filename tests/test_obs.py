"""Tests for the ``repro.obs`` telemetry layer.

Covers the tracer (nesting, rank context, the disabled no-op fast path
and its <5 % overhead guard), the metrics registry (histogram semantics,
the ``metrics.json`` snapshot), the Chrome trace exporter (schema
validity for live spans), the shared
journal/trace timebase (satellite bugfix: timestamps never run
backwards, including across a resume), the inspect summarizer, and the
CLI flags that arm the layer.
"""

import io
import json
import math
import time

import pytest

import repro.obs as obs
from repro.hw.streams import KernelEvent
from repro.obs import log as obslog
from repro.obs import trace as obstrace
from repro.obs.export import chrome_trace, queue_occupancy
from repro.obs.inspect import (
    breakdowns_from_spans,
    eta_summary,
    imbalance_ratio,
    top_spans,
)
from repro.obs.metrics import Histogram, MetricsRegistry, get_registry
from repro.obs.timebase import TIMEBASE, timestamp_pair
from repro.runtime.breakdown import BREAKDOWN_PHASES
from tests.oracles import utilization_from_events, validate_chrome_trace

#: ``loopnest.provenance()["routines"]`` entries that are kernels.
KERNEL_ROUTINES = ("nlmass", "nlmnt2", "output")


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with the telemetry layer dark."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _mini_model():
    from repro.core import RTiModel, SimulationConfig
    from repro.fault import GaussianSource
    from repro.topo import build_mini_kochi

    mk = build_mini_kochi()
    model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
    model.set_initial_condition(
        GaussianSource(x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0)
    )
    return model


# ---------------------------------------------------------------------------
# Timebase
# ---------------------------------------------------------------------------


class TestTimebase:
    def test_pair_is_monotone(self):
        pairs = [timestamp_pair() for _ in range(100)]
        monos = [m for _, m in pairs]
        walls = [w for w, _ in pairs]
        assert monos == sorted(monos)
        assert walls == sorted(walls)

    def test_wall_is_derived_not_reread(self):
        wall, mono = timestamp_pair()
        assert wall == pytest.approx(TIMEBASE.wall_of(mono))
        assert wall == pytest.approx(TIMEBASE.wall0 + mono * 1e-6)

    def test_journal_events_share_the_timebase(self, tmp_path):
        from repro.persist.journal import RunJournal

        j = RunJournal(tmp_path / "journal.jsonl")
        recs = [j.record(obslog.ServiceEvent(None, "tick", fields={"i": i}))
                for i in range(5)]
        # A "resumed process" reopens the same file and keeps appending.
        j2 = RunJournal(tmp_path / "journal.jsonl")
        recs += [j2.record(obslog.ServiceEvent(None, "tock", fields={"i": i}))
                 for i in range(5)]
        monos = [r["ts_mono_us"] for r in recs]
        walls = [r["ts_wall"] for r in recs]
        assert monos == sorted(monos)
        assert walls == sorted(walls)
        for r in recs:
            assert r["ts_wall"] == pytest.approx(
                TIMEBASE.wall_of(r["ts_mono_us"]), abs=1e-3
            )

    def test_trace_spans_merge_monotone_with_journal(self, tmp_path):
        from repro.persist.journal import RunJournal

        obs.enable()
        j = RunJournal(tmp_path / "journal.jsonl")
        j.record(obslog.ServiceEvent(None, "before"))
        with obstrace.span("work"):
            time.sleep(0.001)
        j.record(obslog.ServiceEvent(None, "after"))
        spans = obs.get_tracer().export()
        merged = sorted(
            [(r["ts_mono_us"], r["event"]) for r in j.events()]
            + [(s["ts_us"], s["name"]) for s in spans
               if s["name"] == "work"]
        )
        assert [name for _, name in merged][:3] == [
            "before", "work", "after"
        ]


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        s1 = obstrace.span("NLMASS")
        s2 = obstrace.span("JNZ", cat="comm", level=3)
        assert s1 is s2 is obstrace._NOOP

    def test_spans_nest_and_record_depth(self):
        obs.enable()
        with obstrace.span("outer"):
            with obstrace.span("inner"):
                pass
        by_name = {s["name"]: s for s in obs.get_tracer().export()}
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        assert by_name["inner"]["ts_us"] >= by_name["outer"]["ts_us"]

    def test_rank_context_propagates(self):
        obs.enable()
        obs.get_tracer().set_context(rank=3)
        try:
            with obstrace.span("PTP_Z", cat="comm"):
                pass
        finally:
            obs.get_tracer().set_context(rank=None)
        (s,) = [
            s for s in obs.get_tracer().export() if s["name"] == "PTP_Z"
        ]
        assert s["rank"] == 3

    def test_instant_records_zero_duration(self):
        obs.enable()
        obs.get_tracer().instant("degradation:drop_level", step=7)
        (s,) = obs.get_tracer().export()
        assert s["dur_us"] == 0.0
        assert s["args"]["step"] == 7
        (ev,) = [
            e for e in chrome_trace()["traceEvents"]
            if e["name"] == "degradation:drop_level"
        ]
        assert ev["ph"] == "i"

    def test_clear_drops_spans(self):
        obs.enable()
        with obstrace.span("x"):
            pass
        obs.get_tracer().clear()
        assert obs.get_tracer().export() == []

    def test_model_step_emits_every_breakdown_phase(self):
        obs.enable()
        model = _mini_model()
        model.run(2)
        names = {s["name"] for s in obs.get_tracer().export()}
        for phase in BREAKDOWN_PHASES:
            assert phase in names, f"phase {phase} not traced"
        assert "restrict" in names or "interp" in names

    @pytest.mark.usefixtures("rank_processes")
    def test_distributed_run_traces_ranks_and_halo(self):
        from repro.core import SimulationConfig
        from repro.fault import GaussianSource
        from repro.grid.block import Block
        from repro.grid.hierarchy import NestedGrid
        from repro.grid.level import GridLevel
        from repro.par.decomposition import Decomposition, RankWork, WorkItem
        from repro.par.driver import run_distributed
        from repro.validation import FlatBathymetry

        grid = NestedGrid([GridLevel(index=1, dx=100.0, blocks=[
            Block(0, 1, 0, 0, 24, 48), Block(1, 1, 24, 0, 24, 48)])])
        decomp = Decomposition(grid, (
            RankWork(0, 1, (WorkItem(grid.block(0)),)),
            RankWork(1, 1, (WorkItem(grid.block(1)),)),
        ))
        obs.enable()
        run_distributed(
            grid, FlatBathymetry(50.0),
            SimulationConfig(dt=1.0, boundary="wall"),
            decomp,
            GaussianSource(x0=2400.0, y0=2400.0, amplitude=1.0, sigma=600.0),
            n_steps=3,
        )
        spans = obs.get_tracer().export()
        assert {s["rank"] for s in spans if s["rank"] is not None} == {0, 1}
        names = {s["name"] for s in spans}
        assert {"halo_pack", "halo_recv", "halo_unpack"} <= names
        halo = get_registry().to_dict()["counters"][
            "repro_halo_bytes_total"
        ]
        assert halo > 0
        bds = breakdowns_from_spans(spans)
        assert [bd.rank for bd in bds] == [0, 1]
        assert imbalance_ratio(bds) >= 1.0

    def test_disabled_tracer_creates_no_span_and_allocates_nothing(
        self, monkeypatch
    ):
        """What keeps the disabled tracer cheap, as counts: every call
        site gets the one shared no-op back, no ``Span`` is ever built and
        nothing is allocated, over a bounded number of call sites a step.
        (The ratio itself is the ledger's ``obs.trace_overhead_ratio``;
        a wall-clock guard here drifted with the box and with every
        kernel speed-up.)
        """
        import tracemalloc

        obs.enable()
        probe = _mini_model()
        probe.run(2)
        recorded = len(obs.get_tracer().spans())
        spans_per_step = recorded / 2
        obs.disable()
        # 7 phases + 3 kernels x 10 blocks + one restrict/interp per child
        # level: 45 today.
        assert 7 <= spans_per_step <= 50

        built = []
        init = obstrace.Span.__init__
        monkeypatch.setattr(
            obstrace.Span, "__init__",
            lambda self, *a, **kw: (built.append(a), init(self, *a, **kw))[1],
        )
        assert obstrace.span("NLMASS", cells=5) is obstrace.NOOP_SPAN
        assert obs.get_tracer().span("NLMASS", cat="comm") is obstrace.NOOP_SPAN
        model = _mini_model()
        model.run(3)
        assert built == [] and len(obs.get_tracer().spans()) == recorded

        tracemalloc.start()
        try:
            for _ in range(100):
                obstrace.span("NLMASS", cells=5)  # warm
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for _ in range(10_000):
                with obstrace.span("NLMASS", cells=5):
                    pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 1024


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_only_goes_up(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_steps_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g", labels={"q": "0"}) is not reg.gauge(
            "g", labels={"q": "1"}
        )
        with pytest.raises(ValueError):
            reg.gauge("a")  # already a counter

    def test_exemplar_keeps_most_recent_per_bucket(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(0.2, trace_id="old")
        h.observe(0.3, trace_id="new")
        assert h.exemplars[0] == ("new", 0.3)

    def test_bad_observations_counted_and_skipped(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", buckets=(1.0,))
        h.observe(0.5)
        h.observe(math.nan)
        h.observe(-1.0, trace_id="req-9")
        assert h.count == 1 and h.sum == pytest.approx(0.5)
        assert h.bad_observations == 2
        # The poison never lands in a bucket or exemplar slot...
        assert h.counts == [1, 0]
        assert h.exemplars == [None, None]
        # ...but is loudly metered in both read-outs.
        samples = reg.sample()
        assert samples["repro_metrics_bad_observations_total"] == 2
        assert reg.to_dict()["counters"][
            "repro_metrics_bad_observations_total"] == 2

    def test_clean_registry_omits_bad_observation_counter(self):
        reg = MetricsRegistry()
        reg.histogram("repro_lat_seconds", buckets=(1.0,)).observe(0.5)
        assert "repro_metrics_bad_observations_total" not in (
            reg.to_dict()["counters"])

    def test_metrics_json_snapshot(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        path = reg.write_json(tmp_path / "metrics.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.obs.metrics/1"
        assert doc["counters"]["c"] == 3

    def test_step_metrics_collected_when_enabled(self):
        obs.enable()
        model = _mini_model()
        model.run(3)
        doc = get_registry().to_dict()
        assert doc["counters"]["repro_steps_total"] == 3
        assert doc["gauges"]["repro_steps_per_second"] > 0
        assert doc["gauges"]["repro_cells_per_second"] > 0

    def test_no_metrics_collected_when_disabled(self):
        model = _mini_model()
        model.run(2)
        assert get_registry().to_dict()["counters"] == {}


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestChromeExport:
    def test_live_span_trace_is_schema_valid(self):
        obs.enable()
        model = _mini_model()
        model.run(2)
        doc = chrome_trace()
        assert validate_chrome_trace(doc) == []
        names = {
            ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "X"
        }
        for phase in BREAKDOWN_PHASES:
            assert phase in names

    def test_trace_carries_clock_sync_metadata(self):
        doc = chrome_trace()
        sync = [
            ev for ev in doc["traceEvents"] if ev["name"] == "clock_sync"
        ]
        assert sync and sync[0]["args"]["wall_epoch_s"] == TIMEBASE.wall0

    def test_validator_flags_broken_events(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "pid": 0, "tid": 0, "ts": 1.0, "dur": -5.0},
                "not an object",
            ]
        }
        problems = validate_chrome_trace(doc)
        assert any("lacks 'name'" in p for p in problems)
        assert any("non-negative 'dur'" in p for p in problems)
        assert any("not an object" in p for p in problems)
        assert validate_chrome_trace({}) == [
            "traceEvents is missing or not a list"
        ]


class TestQueueOccupancyAndUtilization:
    @staticmethod
    def _ev(queue, start, end):
        return KernelEvent(
            label="k", routine="NLMASS", queue=queue,
            enqueue_us=start, start_us=start, end_us=end, bytes_moved=0.0,
        )

    def test_occupancy_per_queue(self):
        events = [self._ev(0, 0, 50), self._ev(1, 0, 100)]
        occ = queue_occupancy(events, makespan_us=100.0)
        assert occ == {0: 0.5, 1: 1.0}

    def test_occupancy_zero_makespan_is_empty(self):
        assert queue_occupancy([self._ev(0, 0, 1)], 0.0) == {}
        assert queue_occupancy([], -1.0) == {}

    def test_utilization_empty_events(self):
        assert utilization_from_events([], 100.0) == 0.0

    def test_utilization_zero_makespan(self):
        assert utilization_from_events([self._ev(0, 0, 10)], 0.0) == 0.0

    def test_utilization_overlapping_intervals_union(self):
        # [0, 60) and [40, 80) overlap: union is 80, not 100.
        events = [self._ev(0, 0, 60), self._ev(1, 40, 80)]
        assert utilization_from_events(events, 100.0) == pytest.approx(0.8)

    def test_utilization_disjoint_intervals_sum(self):
        events = [self._ev(0, 0, 20), self._ev(1, 50, 70)]
        assert utilization_from_events(events, 100.0) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------


class TestLog:
    @pytest.fixture(autouse=True)
    def _restore_config(self):
        yield
        obslog.configure(level="warning", json_mode=False, stream=None)

    def test_json_mode_emits_parseable_records(self):
        sink = io.StringIO()
        obslog.configure(level="info", json_mode=True, stream=sink)
        obslog.get_logger("t").info("hello", step=3)
        rec = json.loads(sink.getvalue())
        assert rec["event"] == "hello"
        assert rec["step"] == 3
        assert rec["level"] == "info"
        assert "ts_mono_us" in rec and "ts_wall" in rec

    def test_threshold_filters(self):
        sink = io.StringIO()
        obslog.configure(level="warning", stream=sink)
        obslog.get_logger("t").info("dropped")
        obslog.get_logger("t").warning("kept")
        assert "dropped" not in sink.getvalue()
        assert "kept" in sink.getvalue()

    def test_context_binds_to_records(self):
        """The run context a caller passes (rank, step) lands in the
        record, in both formats."""
        sink = io.StringIO()
        obslog.configure(level="info", json_mode=True, stream=sink)
        obslog.get_logger("t").info("x", rank=2)
        assert json.loads(sink.getvalue())["rank"] == 2
        sink = io.StringIO()
        obslog.configure(level="info", stream=sink)
        obslog.get_logger("t").info("x", rank=2, step=5)
        assert sink.getvalue() == "[info] t: x (rank=2 step=5)\n"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            obslog.configure(level="loud")


# ---------------------------------------------------------------------------
# Inspection
# ---------------------------------------------------------------------------


class TestInspect:
    def test_breakdowns_fold_spans_by_rank_and_phase(self):
        spans = [
            {"name": "NLMASS", "rank": 0, "dur_us": 10.0},
            {"name": "NLMASS", "rank": 0, "dur_us": 5.0},
            {"name": "PTP_Z", "rank": 1, "dur_us": 30.0},
            {"name": "interp", "rank": 0, "dur_us": 99.0},  # not a phase
            {"name": "NLMNT2", "rank": None, "dur_us": 7.0},  # -> rank 0
        ]
        bds = breakdowns_from_spans(spans)
        assert [bd.rank for bd in bds] == [0, 1]
        assert bds[0].phases["NLMASS"].busy_us == 15.0
        assert bds[0].phases["NLMNT2"].busy_us == 7.0
        assert bds[1].phases["PTP_Z"].busy_us == 30.0

    def test_imbalance_ratio(self):
        spans = [
            {"name": "NLMASS", "rank": 0, "dur_us": 10.0},
            {"name": "NLMASS", "rank": 1, "dur_us": 30.0},
        ]
        assert imbalance_ratio(breakdowns_from_spans(spans)) == 1.5
        assert imbalance_ratio([]) == 1.0

    def test_top_spans_sorted_desc(self):
        spans = [
            {"name": "a", "dur_us": 1.0},
            {"name": "b", "dur_us": 3.0},
            {"name": "c", "dur_us": 0.0},  # zero-duration excluded
            {"name": "d", "dur_us": 2.0},
        ]
        assert [s["name"] for s in top_spans(spans, 2)] == ["b", "d"]

    def test_eta_summary_reports_projection_error(self):
        events = [
            {"event": "run_start", "deadline_s": 100.0},
            {
                "event": "degradation", "action": "drop_level",
                "step": 40, "projected_s": 120.0, "deadline_s": 100.0,
            },
            {"event": "complete", "elapsed_s": 90.0},
        ]
        lines = "\n".join(eta_summary(events))
        assert "deadline" in lines
        assert "met" in lines
        assert "+30.0 s" in lines  # projected 120 vs actual 90

    def test_inspect_traced_cli_run_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        from repro.core import loopnest

        rundir = tmp_path / "run"
        before = loopnest.provenance()  # this process has run kernels before
        assert main([
            "forecast", "--minutes", "0.05",
            "--rundir", str(rundir),
            "--export-trace", "--export-metrics",
        ]) == 0
        assert (rundir / "trace.json").exists()
        assert (rundir / "metrics.json").exists()
        doc = json.loads((rundir / "trace.json").read_text())
        assert validate_chrome_trace(doc) == []
        capsys.readouterr()
        # What ran the kernels is on every kernel span and in the snapshot.
        ran = loopnest.choice()
        kernels = [e for e in doc["traceEvents"] if e["name"].endswith(".kernel")]
        assert kernels and {e["args"]["executor"] for e in kernels} == {ran.executor}
        metrics = json.loads((rundir / "metrics.json").read_text())
        said = metrics["kernel_executor"]
        routines = said.pop("routines")
        totals = {k: said.pop(k) for k in ("prepared", "launches")}
        assert said == {
            "executor": ran.executor, "compiler": ran.compiler, "reason": ran.reason,
        }
        assert totals == {k: sum(r[k] for r in routines.values()) for k in totals}
        counts = {
            k: sum(routines[r][k] - before["routines"][r][k] for r in KERNEL_ROUTINES)
            for k in totals
        }
        # Every block's three kernels, once per leap-frog parity, then launched.
        steps = len(kernels) // 30
        assert counts == (
            {"prepared": 60, "launches": 30 * steps} if ran.executor == "nest"
            else {"prepared": 0, "launches": 0}
        )

        assert main(["inspect", str(rundir)]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "rank imbalance" in out
        assert "NLMASS" in out
        assert "slowest spans" in out
        assert "throughput" in out
        assert f"kernel executor : {ran.executor} (" in out
        assert (" calls prepared, " in out) == (ran.executor == "nest")
        for routine, n in routines.items():  # each its own line, where it was launched
            assert (f"  {routine:<14}: " in out) == (n["launches"] > 0), routine

    def test_inspect_untraced_rundir_suggests_flag(self, tmp_path, capsys):
        from repro.cli import main

        # Distinct exit code + structured JSON error (satellite c).
        assert main(["inspect", str(tmp_path)]) == 4
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "no-spans"
        assert "--export-trace" in err["hint"]

    def test_inspect_missing_dir_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["inspect", str(tmp_path / "nope")]) == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "rundir-missing"

    def test_export_trace_explicit_path(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "custom.json"
        assert main([
            "forecast", "--minutes", "0.02",
            "--export-trace", str(target),
        ]) == 0
        doc = json.loads(target.read_text())
        assert validate_chrome_trace(doc) == []
        capsys.readouterr()
