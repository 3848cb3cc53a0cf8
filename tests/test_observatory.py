"""Tests for the performance observatory (PR 4).

Covers the four instruments the observatory adds on top of the telemetry
layer:

* the median/MAD **regression detector** and its edge cases (zero
  variance, single sample, improvements, exact threshold boundary);
* the versioned **baseline store** (save/load, bounded history, per-run
  snapshots) and the ``repro bench`` / ``repro compare`` CLI round trip,
  including the injected-slowdown self-test the gate must catch;
* **critical-path analytics** over recorded spans and simulated
  :class:`~repro.hw.streams.KernelEvent` timelines (launch-bound versus
  dependency idle, longest kernel chain);
* **online calibration**: fitting the Fig.-5 linear model from live
  kernel spans, drift against the stored reference model, and the
  ``repro retune --from-rundir`` re-tuning acceptance criterion.
"""

import json
import math
import subprocess

import pytest

import repro.obs as obs
from repro.balance.calibrate import (
    calibrate_from_spans,
    drift,
    kernel_samples,
)
from repro.balance.perfmodel import LinearPerfModel
from repro.errors import CalibrationError, ObservatoryError
from repro.hw.streams import KernelEvent
from repro.obs.baseline import (
    BENCH_SCHEMA,
    BaselineStore,
    flatten_sample,
    load_doc,
    parse_injection,
)
from repro.obs.critpath import (
    analyze_queues,
    analyze_spans,
    kernel_critical_chain,
    launch_latency_us,
    saturation_summary,
)
from repro.obs.metrics import get_registry
from repro.obs.regression import (
    DEFAULT_THRESHOLD,
    compare_docs,
    detect,
    direction_of,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with the telemetry layer dark."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ---------------------------------------------------------------------------
# Regression detector
# ---------------------------------------------------------------------------


class TestRegressionDetector:
    def test_direction_classification(self):
        assert direction_of("steps_per_second") == "higher"
        assert direction_of("cells_per_second") == "higher"
        assert direction_of("wall_s") == "lower"
        assert direction_of("phase_us.NLMNT2") == "lower"

    def test_zero_variance_baseline_uses_threshold_alone(self):
        base = [100.0, 100.0, 100.0]
        ok = detect("wall_s", base, [120.0])
        assert ok.noise_frac == 0.0
        assert not ok.regressed
        bad = detect("wall_s", base, [140.0])
        assert bad.regressed

    def test_single_sample_documents_work(self):
        v = detect("wall_s", [100.0], [150.0])
        assert v.baseline_median == 100.0
        assert v.delta_frac == pytest.approx(0.5)
        assert v.regressed

    def test_improvement_never_triggers(self):
        v = detect("wall_s", [100.0] * 3, [10.0])
        assert v.improved and not v.regressed
        # Direction-aware: a throughput *drop* is the regression.
        v = detect("steps_per_second", [100.0] * 3, [10.0])
        assert v.regressed and not v.improved
        v = detect("steps_per_second", [100.0] * 3, [500.0])
        assert v.improved and not v.regressed

    def test_threshold_boundary_is_exact(self):
        # delta exactly at the threshold passes (strict inequality)...
        at = detect("wall_s", [100.0], [130.0], threshold=0.30)
        assert at.delta_frac == at.gate_frac
        assert not at.regressed
        # ...the next representable value above it fails.
        above = detect(
            "wall_s", [100.0],
            [math.nextafter(130.0, math.inf)], threshold=0.30,
        )
        assert above.regressed

    def test_noisy_baseline_widens_its_own_gate(self):
        base = [100.0, 120.0, 140.0]  # median 120, MAD 20
        v = detect("wall_s", base, [190.0])
        assert v.noise_frac > DEFAULT_THRESHOLD
        assert v.gate_frac == pytest.approx(v.noise_frac)
        assert v.delta_frac > DEFAULT_THRESHOLD  # would fail a quiet gate
        assert not v.regressed  # but sits inside the noise band

    def test_zero_baseline_degrades_gracefully(self):
        worse = detect("wall_s", [0.0, 0.0], [5.0])
        assert worse.delta_frac == math.inf and worse.regressed
        same = detect("wall_s", [0.0, 0.0], [0.0])
        assert same.delta_frac == 0.0 and not same.regressed
        better = detect("steps_per_second", [0.0], [5.0])
        assert better.improved and not better.regressed

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            detect("wall_s", [], [1.0])
        with pytest.raises(ValueError):
            detect("wall_s", [1.0], [])
        with pytest.raises(ValueError):
            detect("wall_s", [1.0], [1.0], threshold=-0.1)


def _doc(scale_nlmnt2=1.0, scale_all=1.0, rev="abc1234", n=3):
    """A synthetic bench document with deterministic samples."""
    samples = []
    for i in range(n):
        jitter = 1.0 + 0.001 * i
        phase = {
            "NLMASS": 2000.0 * jitter * scale_all,
            "NLMNT2": 20000.0 * jitter * scale_all * scale_nlmnt2,
            "OUTPUT": 3500.0 * jitter * scale_all,
        }
        wall = sum(phase.values()) * 1e-6
        samples.append({
            "wall_s": wall,
            "steps_per_second": 40 / wall,
            "cells_per_second": 40 * 24_000 / wall,
            "halo_bytes": 334_080.0,
            "phase_us": phase,
        })
    return {
        "schema": BENCH_SCHEMA,
        "grid": "mini-kochi",
        "platform": "a100-sxm4",
        "git_rev": rev,
        "steps": 40,
        "repeats": n,
        "samples": samples,
    }


class TestCompareDocs:
    def test_identical_documents_pass(self):
        report = compare_docs(_doc(), _doc(rev="def5678"))
        assert report.ok
        assert report.baseline_rev == "abc1234"
        assert report.current_rev == "def5678"
        assert "no confirmed regressions" in report.summary()

    def test_injected_nlmnt2_slowdown_is_confirmed(self):
        report = compare_docs(_doc(), _doc(scale_nlmnt2=2.0))
        regressed = {v.metric for v in report.regressions}
        assert "phase_us.NLMNT2" in regressed
        assert "wall_s" in regressed
        assert "steps_per_second" in regressed  # throughput dropped
        assert "phase_us.NLMASS" not in regressed  # untouched phase
        assert "CONFIRMED REGRESSIONS" in report.summary()

    def test_improvement_reported_not_flagged(self):
        report = compare_docs(_doc(), _doc(scale_all=0.5))
        assert report.ok
        assert any(
            v.metric == "wall_s" for v in report.improvements
        )

    def test_only_shared_metrics_compared(self):
        cur = _doc()
        for s in cur["samples"]:
            del s["halo_bytes"]
            s["new_metric"] = 1.0
        report = compare_docs(_doc(), cur)
        metrics = {v.metric for v in report.verdicts}
        assert "halo_bytes" not in metrics
        assert "new_metric" not in metrics
        assert "wall_s" in metrics

    def test_legacy_flat_v1_document_still_compares(self):
        legacy = {
            "schema": "repro.bench_obs/1",
            "wall_s": 0.0255,
            "steps_per_second": 1568.6,
            "phase_us": {"NLMNT2": 20000.0, "NLMASS": 2000.0},
        }
        report = compare_docs(legacy, legacy)
        assert report.ok
        assert {v.metric for v in report.verdicts} >= {
            "wall_s", "steps_per_second", "phase_us.NLMNT2",
        }

    def test_flatten_sample_prefixes_phases(self):
        flat = flatten_sample(_doc()["samples"][0])
        assert "phase_us.NLMNT2" in flat
        assert "wall_s" in flat


# ---------------------------------------------------------------------------
# Baseline store + injection parsing
# ---------------------------------------------------------------------------


class TestBaselineStore:
    def test_save_load_round_trip(self, tmp_path):
        store = BaselineStore(tmp_path)
        doc = _doc()
        path = store.save(doc)
        assert path == tmp_path / "a100-sxm4.json"
        assert store.exists("a100-sxm4")
        assert store.platforms() == ["a100-sxm4"]
        loaded = store.load("a100-sxm4")
        assert loaded["git_rev"] == "abc1234"
        assert loaded["samples"] == doc["samples"]

    def test_history_is_bounded(self, tmp_path):
        from repro.obs.baseline import HISTORY_LIMIT

        store = BaselineStore(tmp_path)
        for i in range(HISTORY_LIMIT + 3):
            store.save(_doc(rev=f"rev{i}"))
        loaded = store.load("a100-sxm4")
        assert loaded["git_rev"] == f"rev{HISTORY_LIMIT + 2}"
        history = loaded["history"]
        assert len(history) == HISTORY_LIMIT
        # Oldest-first provenance chain; newest previous baseline last,
        # stored as a compact summary (no raw samples).
        assert history[-1]["git_rev"] == f"rev{HISTORY_LIMIT + 1}"
        assert all("samples" not in h for h in history)

    def test_rundir_snapshot(self, tmp_path):
        store = BaselineStore(tmp_path / "bl")
        rundir = tmp_path / "run"
        rundir.mkdir()
        snap = store.snapshot(rundir, _doc())
        assert snap == rundir / "bench.json"
        assert json.loads(snap.read_text())["schema"] == BENCH_SCHEMA

    def test_load_doc_missing_raises_cleanly(self, tmp_path):
        with pytest.raises(ObservatoryError):
            load_doc(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ObservatoryError):
            load_doc(bad)

    def test_parse_injection(self):
        assert parse_injection("NLMNT2:2.0") == {"NLMNT2": 2.0}
        assert parse_injection("NLMNT2:2,OUTPUT:1.5") == {
            "NLMNT2": 2.0, "OUTPUT": 1.5,
        }
        for bad in ("NLMNT2", "NLMNT2:zero", "NLMNT2:-1", ":2", ""):
            with pytest.raises(ObservatoryError):
                parse_injection(bad)


# ---------------------------------------------------------------------------
# bench / compare CLI round trip (the ISSUE acceptance flow)
# ---------------------------------------------------------------------------


class TestBenchCompareCli:
    def _bench(self, tmp_path, *extra):
        from repro.cli import main

        return main([
            "bench", "--repeats", "1", "--steps", "3",
            "--baseline-dir", str(tmp_path / "bl"), *extra,
        ])

    def test_bench_writes_document_and_creates_baseline(
        self, tmp_path, capsys
    ):
        out = tmp_path / "BENCH.json"
        assert self._bench(tmp_path, "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "baseline saved" in text
        doc = load_doc(out)
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["platform"] == "a100-sxm4"
        # Provenance is stamped: the revision when the working
        # directory is a git checkout, an explicit null in an export.
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True,
        )
        assert "git_rev" in doc
        if rev.returncode == 0:
            assert doc["git_rev"] == rev.stdout.strip()
        assert doc["repeats"] == 1 and len(doc["samples"]) == 1
        assert doc["medians"]["steps_per_second"] > 0
        assert doc["queue_occupancy"]
        assert (tmp_path / "bl" / "a100-sxm4.json").exists()

    def test_second_bench_keeps_baseline(self, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        assert self._bench(tmp_path, "--out", str(out)) == 0
        first = load_doc(tmp_path / "bl" / "a100-sxm4.json")
        capsys.readouterr()
        assert self._bench(tmp_path, "--out", str(out)) == 0
        assert "baseline kept" in capsys.readouterr().out
        kept = load_doc(tmp_path / "bl" / "a100-sxm4.json")
        assert kept["created_s"] == first["created_s"]

    def test_update_baseline_promotes_and_keeps_history(
        self, tmp_path, capsys
    ):
        out = tmp_path / "BENCH.json"
        assert self._bench(tmp_path, "--out", str(out)) == 0
        assert self._bench(
            tmp_path, "--out", str(out), "--update-baseline"
        ) == 0
        doc = load_doc(tmp_path / "bl" / "a100-sxm4.json")
        assert len(doc["history"]) == 1

    def test_compare_missing_baseline_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "compare", "--current", "ignored.json",
            "--baseline-dir", str(tmp_path / "bl"),
        ]
        assert main(args) == 3
        assert "no baseline" in capsys.readouterr().out
        assert main(args + ["--allow-missing"]) == 0
        assert "warning" in capsys.readouterr().out

    def test_round_trip_unchanged_then_injected_regression(
        self, tmp_path, capsys
    ):
        """The ISSUE acceptance flow: bench, re-compare clean, then a 2x
        NLMNT2 slowdown must come back as a confirmed regression."""
        from repro.cli import main

        out = tmp_path / "BENCH.json"
        assert self._bench(tmp_path, "--out", str(out)) == 0
        capsys.readouterr()

        # Unchanged re-run: the baseline document compared against
        # itself is delta-zero on every metric — never flagged.
        assert main([
            "compare", "--current", str(out),
            "--baseline-dir", str(tmp_path / "bl"),
        ]) == 0
        assert "no confirmed regressions" in capsys.readouterr().out

        # Injected 2x NLMNT2 slowdown: confirmed, non-zero exit.
        slow = tmp_path / "BENCH_slow.json"
        assert self._bench(
            tmp_path, "--out", str(slow), "--no-baseline",
            "--inject-slowdown", "NLMNT2:2.0",
        ) == 0
        capsys.readouterr()
        assert main([
            "compare", "--current", str(slow),
            "--baseline-dir", str(tmp_path / "bl"),
        ]) == 1
        text = capsys.readouterr().out
        assert "CONFIRMED REGRESSIONS" in text
        assert "phase_us.NLMNT2" in text

    def test_bench_bad_injection_spec_fails_cleanly(self, tmp_path, capsys):
        assert self._bench(tmp_path, "--inject-slowdown", "NLMNT2") == 2
        assert "error" in capsys.readouterr().out

    def test_bench_rundir_snapshot(self, tmp_path, capsys):
        rundir = tmp_path / "run"
        rundir.mkdir()
        assert self._bench(
            tmp_path, "--out", str(tmp_path / "B.json"),
            "--rundir", str(rundir),
        ) == 0
        assert (rundir / "bench.json").exists()


# ---------------------------------------------------------------------------
# Critical-path analytics
# ---------------------------------------------------------------------------


def _span(name, rank, dur, ts=0.0):
    return {"name": name, "rank": rank, "dur_us": dur, "ts_us": ts}


class TestSpanCriticalPath:
    def test_attribution_and_critical_rank(self):
        spans = [
            _span("NLMASS", 0, 100.0), _span("JNZ", 0, 50.0),
            _span("NLMNT2", 0, 400.0),
            _span("NLMASS", 1, 150.0), _span("JNZ", 1, 80.0),
            _span("NLMNT2", 1, 600.0), _span("PTP_MN", 1, 70.0),
            _span("halo.pack", 1, 999.0),  # non-phase span: ignored
        ]
        report = analyze_spans(spans)
        assert report.critical.rank == 1
        assert report.critical.compute_us == pytest.approx(750.0)
        assert report.critical.exchange_us == pytest.approx(150.0)
        assert report.compute_fraction == pytest.approx(750.0 / 900.0)
        # The chain is in Fig.-2 pipeline order, only phases that ran.
        assert [name for name, _ in report.chain] == [
            "NLMASS", "JNZ", "NLMNT2", "PTP_MN",
        ]
        assert "critical path" in report.summary()

    def test_unranked_spans_fold_into_rank_zero(self):
        report = analyze_spans([_span("NLMNT2", None, 10.0)])
        assert report.critical.rank == 0

    def test_no_phase_spans_returns_none(self):
        assert analyze_spans([]) is None
        assert analyze_spans([_span("halo.pack", 0, 5.0)]) is None


def _ev(queue, enqueue, start, end, label="k"):
    return KernelEvent(
        label=label, routine="NLMNT2", queue=queue,
        enqueue_us=enqueue, start_us=start, end_us=end, bytes_moved=0.0,
    )


class TestQueueAnalytics:
    def test_launch_gap_versus_dependency_gap(self):
        events = [
            _ev(0, 0.0, 0.0, 10.0),
            _ev(0, 5.0, 10.0, 20.0),  # back-to-back: no gap
            # Gap of 12 us; the host only enqueued at t=30, so 10 us of
            # it is exposed launch latency, 2 us is startup phase.
            _ev(0, 30.0, 32.0, 40.0),
        ]
        (q,) = analyze_queues(events, makespan_us=40.0)
        assert q.queue == 0
        assert q.busy_us == pytest.approx(28.0)
        assert q.idle_us == pytest.approx(12.0)
        assert q.n_gaps == 1
        assert q.largest_gap_us == pytest.approx(12.0)
        assert q.launch_gap_us == pytest.approx(10.0)
        assert q.occupancy == pytest.approx(0.7)
        assert launch_latency_us(events) == pytest.approx(10.0)

    def test_dependency_gap_has_no_launch_share(self):
        # Enqueued long before the queue drained: the 5 us gap is pure
        # dependency/contention idle.
        events = [
            _ev(0, 0.0, 0.0, 10.0),
            _ev(0, 1.0, 15.0, 20.0),
        ]
        (q,) = analyze_queues(events)
        assert q.idle_us == pytest.approx(5.0)
        assert q.launch_gap_us == 0.0

    def test_tail_idle_counts_but_is_not_a_gap(self):
        events = [_ev(0, 0.0, 0.0, 10.0), _ev(1, 0.0, 0.0, 40.0)]
        reports = analyze_queues(events)
        q0 = next(q for q in reports if q.queue == 0)
        assert q0.idle_us == pytest.approx(30.0)
        assert q0.n_gaps == 0
        assert q0.occupancy == pytest.approx(0.25)

    def test_kernel_critical_chain_walks_back_to_back(self):
        chain_evs = [
            _ev(0, 0.0, 0.0, 10.0, "a"),
            _ev(0, 1.0, 10.0, 20.0, "b"),
            _ev(0, 2.0, 20.0, 35.0, "c"),
            _ev(1, 0.0, 0.0, 5.0, "other"),
        ]
        chain = kernel_critical_chain(chain_evs)
        assert [e.label for e in chain] == ["a", "b", "c"]
        assert kernel_critical_chain([]) == []

    def test_saturation_summary_modes(self):
        saturated = [_ev(0, 0.0, 0.0, 100.0)]
        text = saturation_summary(analyze_queues(saturated))
        assert "device saturated" in text
        launchy = [
            _ev(0, 0.0, 0.0, 10.0), _ev(0, 50.0, 50.0, 60.0),
        ]
        text = saturation_summary(analyze_queues(launchy))
        assert "launch path exposes" in text
        assert saturation_summary([]) == "no kernel events"


# ---------------------------------------------------------------------------
# Online calibration
# ---------------------------------------------------------------------------


def _kspan(cells, dur, routine="NLMNT2"):
    return {
        "name": f"{routine}.kernel",
        "dur_us": dur,
        "args": {"cells": cells},
    }


class TestCalibration:
    def test_exact_linear_fit(self):
        spans = [
            _kspan(c, 0.1 * c + 50.0)
            for c in (1000, 2000, 4000) for _ in range(2)
        ]
        model = calibrate_from_spans(spans)
        assert model.slope_us_per_cell == pytest.approx(0.1, rel=1e-6)
        assert model.intercept_us == pytest.approx(50.0, rel=1e-6)
        assert model.r2 == pytest.approx(1.0)

    def test_median_aggregation_rejects_outliers(self):
        spans = [
            _kspan(c, 0.1 * c + 50.0)
            for c in (1000, 2000, 4000) for _ in range(3)
        ]
        spans.append(_kspan(1000, 1e6))  # one GC pause / page-fault spike
        model = calibrate_from_spans(spans)
        assert model.slope_us_per_cell == pytest.approx(0.1, rel=1e-6)

    def test_needs_two_distinct_sizes(self):
        with pytest.raises(CalibrationError):
            calibrate_from_spans([_kspan(1000, 150.0)] * 5)
        with pytest.raises(CalibrationError):
            calibrate_from_spans([])

    def test_spans_without_cells_are_ignored(self):
        spans = [
            {"name": "NLMNT2.kernel", "dur_us": 1.0, "args": {}},
            {"name": "NLMNT2", "dur_us": 1.0, "args": {"cells": 10}},
        ]
        assert kernel_samples(spans) == ([], [])

    def test_live_model_emits_kernel_spans_with_cells(self):
        from repro.core import RTiModel, SimulationConfig
        from repro.fault import GaussianSource
        from repro.topo import build_mini_kochi

        mk = build_mini_kochi()
        model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
        model.set_initial_condition(
            GaussianSource(x0=4_000.0, y0=16_000.0,
                           amplitude=2.0, sigma=2_500.0)
        )
        obs.enable()
        model.run(2)
        spans = obs.get_tracer().export()
        cells, times = kernel_samples(spans)
        # 10 blocks x 2 steps, every span stamped with its block size.
        assert len(cells) == 20
        assert len(set(cells)) >= 2
        assert all(t >= 0.0 for t in times)
        fitted = calibrate_from_spans(spans)
        assert fitted.slope_us_per_cell > 0
        # "Update output data" is a kernel like the other two.
        assert sorted(kernel_samples(spans, "OUTPUT")[0]) == sorted(cells)

    def test_drift_verdict(self):
        ref = LinearPerfModel(1.09e-4, 46.2, 0.942)
        near = LinearPerfModel(1.2e-4, 50.0, 0.95)
        d = drift(near, ref)
        assert not d.drifted
        assert "within tolerance" in d.summary()
        far = LinearPerfModel(2.5e-4, 46.2, 0.95)
        d = drift(far, ref)
        assert d.drifted
        assert d.slope_delta_frac == pytest.approx(2.5 / 1.09 - 1, rel=1e-3)
        assert "DRIFTED" in d.summary()
        with pytest.raises(CalibrationError):
            drift(near, ref, slope_tol=-1.0)

    def test_reference_model_registry(self):
        from repro.hw.registry import (
            PLATFORMS,
            platform_key_of,
            reference_model_for,
        )

        ref = reference_model_for("a100-sxm4")
        assert ref.slope_us_per_cell == pytest.approx(1.09e-4)
        assert ref.intercept_us == pytest.approx(46.2)
        # Platforms without a published Fig.-5 fit get a simulated one,
        # cached so repeated lookups agree.
        h100 = reference_model_for("h100-pcie")
        assert h100.slope_us_per_cell > 0
        again = reference_model_for("h100-pcie")
        assert again.slope_us_per_cell == h100.slope_us_per_cell
        assert platform_key_of(PLATFORMS["a100-sxm4"]) == "a100-sxm4"
        from repro.errors import PlatformError

        with pytest.raises(PlatformError):
            reference_model_for("no-such-platform")


# ---------------------------------------------------------------------------
# retune --from-rundir (acceptance)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_rundir(tmp_path_factory):
    """One traced mini-Kochi CLI run shared by the retune tests."""
    from repro.cli import main

    rundir = tmp_path_factory.mktemp("retune") / "run"
    assert main([
        "forecast", "--minutes", "0.05",
        "--rundir", str(rundir), "--export-trace",
    ]) == 0
    obs.disable()
    obs.reset()
    return rundir


class TestRetune:
    def test_retune_makespan_within_tolerance(self, traced_rundir):
        from repro.obs.observatory import retune_from_rundir
        from repro.topo import build_kochi_grid

        report = retune_from_rundir(
            traced_rundir, ranks=16, iterations=400,
        )
        assert report.n_samples > 0
        assert report.model.r2 > 0.5  # live fit is genuinely linear
        assert report.model.slope_us_per_cell > 0

        # The recalibrated model's predicted makespan for the re-tuned
        # decomposition must sit between the perfect-balance bound and
        # the naive equal-cells split it started from.
        g = build_kochi_grid()
        total_us = report.model.rank_time_us(
            [b.n_cells for lvl in g.levels for b in lvl.blocks]
        )
        lower_bound = total_us / report.ranks
        assert report.retuned_makespan_us >= lower_bound * (1 - 1e-9)
        assert report.retuned_makespan_us <= report.base_makespan_us * 1.10
        assert report.imbalance_retuned <= report.imbalance_base + 1e-9
        assert sum(report.blocks_per_rank) == sum(
            len(lvl.blocks) for lvl in g.levels
        )

    def test_retune_exports_imbalance_gauge(self, traced_rundir):
        from repro.obs.observatory import (
            IMBALANCE_GAUGE,
            retune_from_rundir,
        )

        report = retune_from_rundir(
            traced_rundir, ranks=16, iterations=200,
        )
        gauges = get_registry().to_dict()["gauges"]
        assert gauges[IMBALANCE_GAUGE] == pytest.approx(
            report.imbalance_retuned
        )

    def test_retune_cli(self, traced_rundir, capsys):
        from repro.cli import main

        assert main([
            "retune", "--from-rundir", str(traced_rundir),
            "--iterations", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "recalibrated model" in out
        assert "model drift" in out
        assert "re-tuned decomposition" in out

    def test_retune_untraced_rundir_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.observatory import retune_from_rundir

        with pytest.raises(ObservatoryError):
            retune_from_rundir(tmp_path)
        assert main([
            "retune", "--from-rundir", str(tmp_path / "nope"),
        ]) == 1
        assert "error" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# inspect exit codes (satellite c)
# ---------------------------------------------------------------------------


class TestInspectExitCodes:
    def test_missing_rundir_structured_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["inspect", str(tmp_path / "nope")]) == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "rundir-missing"
        assert err["exit_code"] == 3

    def test_no_spans_structured_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["inspect", str(tmp_path)]) == 4
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "no-spans"
        assert "--export-trace" in err["hint"]
