"""Tests for the performance observatory (PR 4).

Covers what the observatory adds on top of the telemetry layer:

* **critical-path analytics** over recorded spans and simulated
  :class:`~repro.hw.streams.KernelEvent` timelines (launch-bound versus
  dependency idle, longest kernel chain);
* **online calibration**: fitting the Fig.-5 linear model from live
  kernel spans, drift against the stored reference model, and the
  ``repro retune --from-rundir`` re-tuning acceptance criterion.
"""

import json

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
from repro.obs.critpath import (
    analyze_queues,
    analyze_spans,
    kernel_critical_chain,
    launch_latency_us,
    saturation_summary,
)
from repro.obs.metrics import get_registry


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with the telemetry layer dark."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


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

    @pytest.mark.parametrize("bad", [
        ["--system", "bogus"],
        ["--ranks", "1000", "--grid", "mini-kochi"],
    ], ids=["unknown-system", "starved-rank"])
    def test_retune_bad_request_fails_cleanly(
        self, traced_rundir, capsys, bad
    ):
        from repro.cli import main

        assert main([
            "retune", "--from-rundir", str(traced_rundir),
            "--iterations", "10", *bad,
        ]) == 1
        assert capsys.readouterr().out.startswith("error: ")


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
