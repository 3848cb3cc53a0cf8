"""Tests for in-situ physics observability (repro.obs.physics).

Covers the satellite guarantees (non-mutating residuals, gauge arrival
times and resume survival, monitor composition) and the tentpole
properties: sampling is bitwise non-invasive and under the 5 % overhead
budget, the divergence sentinel catches a seeded blow-up many steps
before the health monitor's NaN wall, a diverging resilient forecast
aborts early and still completes via rollback, the soak harness scores
physics verdicts into the ``validity`` SLO, and the artifacts
(``physics.json``, Chrome counter tracks, ``repro inspect --physics``)
round-trip.
"""

import contextlib
import json
import math

import numpy as np
import pytest

import repro.obs as obs
import repro.obs.physics as physics
import repro.resilience.health as health_mod
from repro.cli import main
from repro.core import CompositeMonitor, GaugeRecorder, RTiModel, SimulationConfig
from repro.errors import ConfigurationError, NumericalError, PersistError
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.obs.export import physics_counter_events
from repro.obs.inspect import inspect_physics
from repro.obs.physics import (
    DIVERGED,
    HEALTHY,
    PHYSICS_NAME,
    SUSPECT,
    PhysicsDivergenceError,
    PhysicsSampler,
    load_physics_report,
    physics_doc,
    render_physics_doc,
    write_physics_json,
)
from repro.obs.slo import DEFAULT_SLOS, SLOEngine, render_slo_doc
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    HealthMonitor,
    run_resilient_forecast,
)
from repro.service.soak import SoakConfig, run_soak
from repro.validation import (
    FlatBathymetry,
    lake_at_rest_residual,
    mass_residual,
    single_block_model,
)

from tests import executors
from tests.oracles import validate_chrome_trace


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def basin_model(n=40, depth=50.0, amplitude=1.0):
    """Closed flat basin with a centered Gaussian hump (deterministic)."""
    model = single_block_model(
        n, n, 100.0, FlatBathymetry(depth), boundary="wall"
    )
    model.set_initial_condition(
        GaussianSource(
            x0=n * 50.0, y0=n * 50.0, amplitude=amplitude, sigma=600.0
        )
    )
    return model


def nested_grid():
    return NestedGrid(
        [
            GridLevel(index=1, dx=300.0, blocks=[Block(0, 1, 0, 0, 30, 30)]),
            GridLevel(
                index=2, dx=100.0, blocks=[Block(1, 2, 30, 30, 30, 30)]
            ),
        ]
    )


def source():
    return GaussianSource(x0=4500.0, y0=4500.0, amplitude=1.0, sigma=1500.0)


# ---------------------------------------------------------------------------
# Non-mutating residuals (satellite 1)
# ---------------------------------------------------------------------------


class TestResiduals:
    def test_mass_residual_does_not_mutate(self):
        model = basin_model()
        model.run(10)
        before = model.step_count
        arrays = [st.z_old.copy() for st in model.states.values()]
        v0 = model.total_volume()
        model.run(5)
        drift = mass_residual(model, v0)
        dev = lake_at_rest_residual(model)
        assert model.step_count == before + 5  # residuals ran 0 steps
        assert math.isfinite(drift) and math.isfinite(dev)
        model2 = basin_model()
        model2.run(10)
        for st, z in zip(model2.states.values(), arrays):
            assert np.array_equal(st.z_old, z)

    def test_dry_baseline_returns_zero(self):
        model = single_block_model(
            10, 10, 100.0, FlatBathymetry(-5.0), boundary="wall"
        )
        assert mass_residual(model, 0.0) == 0.0


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


class TestPhysicsSampler:
    def test_cadence(self):
        model = basin_model()
        sampler = PhysicsSampler()
        model.run(30, monitor=sampler)
        assert sampler.samples_taken == 6
        assert [s.step for s in sampler.samples] == [5, 10, 15, 20, 25, 30]

    def test_all_dry_grid_is_finite_and_healthy(self, monkeypatch):
        # A grid that is land everywhere: no wet cells, zero volume.
        # Every diagnostic must stay finite (no division by the empty
        # wet set) and the verdict must be healthy.
        model = single_block_model(
            20, 20, 100.0, FlatBathymetry(-10.0), boundary="wall"
        )
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 1)
        sentinel = PhysicsSampler()
        model.run(5, monitor=sentinel)
        assert len(sentinel.samples) == 5
        for smp in sentinel.samples:
            assert smp.finite
            assert smp.wet_cells == 0
            assert smp.cfl_margin == 1.0
            assert smp.mass_drift == 0.0
            assert smp.verdict == HEALTHY
        assert sentinel.worst == HEALTHY

    def test_clean_run_is_healthy_no_false_aborts(self, monkeypatch):
        model = basin_model()
        rec = GaugeRecorder(
            model, [("mid", 2000.0, 2000.0), ("edge", 300.0, 2000.0)]
        )
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 2)
        sentinel = PhysicsSampler()
        model.run(60, monitor=[rec, sentinel])
        assert sentinel.worst == HEALTHY
        assert sentinel.aborts == 0
        assert sentinel.events == []
        assert all(s.finite for s in sentinel.samples)

    def test_reset_baseline_reseeds(self, monkeypatch):
        model = basin_model()
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 1)
        sampler = PhysicsSampler()
        model.run(5, monitor=sampler)
        sampler.reset_baseline()
        assert sampler._v0 is None
        smp = sampler.sample(model)
        assert smp.mass_drift == 0.0  # volume re-baselined to "now"

    @pytest.mark.parametrize("executor", ["numpy", "nest"])
    def test_a_nan_in_the_second_blocks_m_is_a_divergence(
        self, executor, monkeypatch
    ):
        # Python's max(0.0, nan) is 0.0, and the volume sums level 1 only:
        # a level-2 flux NaN used to leave every diagnostic finite.
        if executor == "nest":
            pinned = executors.on_nests(executors.compiled_nests())
        else:
            pinned = executors.on_numpy()
        model = RTiModel(nested_grid(), FlatBathymetry(50.0), SimulationConfig(dt=1.0))
        model.set_initial_condition(source())
        model.run(3)
        model.states[1].m_old[10, 10] = np.nan
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 1)
        sentinel = PhysicsSampler()
        with pinned, pytest.raises(PhysicsDivergenceError):
            sentinel.after_step(model)
        (smp,) = sentinel.samples
        assert math.isfinite(smp.mass_drift) and not smp.finite
        assert sentinel.verdict == DIVERGED
        assert sentinel.events[-1]["reasons"] == ["non-finite diagnostics"]


# ---------------------------------------------------------------------------
# Bitwise identity: sampling on vs off (tentpole guarantee)
# ---------------------------------------------------------------------------


class TestBitwiseIdentity:
    def test_sampling_does_not_perturb_the_run(self, monkeypatch):
        bare = basin_model()
        bare.run(40)

        watched = basin_model()
        rec = GaugeRecorder(watched, [("mid", 2000.0, 2000.0)])
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 1)
        sentinel = PhysicsSampler()
        watched.run(40, monitor=[rec, sentinel])

        assert sentinel.samples_taken == 40
        for a, b in zip(bare.states.values(), watched.states.values()):
            assert np.array_equal(a.z_old, b.z_old)
            assert np.array_equal(a.m_old, b.m_old)
            assert np.array_equal(a.n_old, b.n_old)


# ---------------------------------------------------------------------------
# Cost guard (tier-1): counts, no clock
# ---------------------------------------------------------------------------


class TestSamplingCost:
    def test_samples_follow_the_cadence_and_allocate_a_few_fields(self):
        """What keeps sampling cheap, as counts: one sample per ``every``
        steps, each allocating a few block-sized temporaries (2.8 fields
        today) however large the block — not a copy of the state, not a
        history.  The ratio to the run's wall is the ledger's
        ``resilience.guard_tax_ratio``; a wall-clock guard here drifted
        with the box and with every kernel speed-up.
        """
        import tracemalloc

        model = basin_model(n=60)
        sampler = PhysicsSampler()
        model.run(50, monitor=[sampler])
        assert sampler.samples_taken == 10

        for n in (60, 120):
            model = basin_model(n=n)
            model.run(3)
            (state,) = model.states.values()
            sampler = PhysicsSampler()
            sampler.sample(model)  # anything built on first use
            tracemalloc.start()
            try:
                sampler.sample(model)  # tracemalloc's own bookkeeping
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                sampler.sample(model)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - before < 4 * state.z_old.nbytes + 16_384


# ---------------------------------------------------------------------------
# Divergence sentinel
# ---------------------------------------------------------------------------


class _Corruptor:
    """Test monitor: one-shot finite corruption of the published eta."""

    def __init__(self, step: int, value: float):
        self.step = step
        self.value = value

    def after_step(self, model) -> None:
        if model.step_count == self.step:
            st = next(iter(model.states.values()))
            st.z_old[st.z_old.shape[0] // 2, st.z_old.shape[1] // 2] = (
                self.value
            )


class _Destabilizer:
    """Test monitor: compound flux corruption, the slow road to NaN.

    Multiplies the published fluxes by *factor* every step from *step*
    on — the donor-cell scheme is dissipative enough that a one-shot
    spike decays, so reaching the non-finite wall needs sustained
    amplification (flux overflows to inf after ~log_factor(1e308)
    steps)."""

    def __init__(self, step: int, factor: float):
        self.step = step
        self.factor = factor

    def after_step(self, model) -> None:
        if model.step_count >= self.step:
            for st in model.states.values():
                st.m_old[:] *= self.factor
                st.n_old[:] *= self.factor


class TestDivergenceSentinel:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sentinel_fires_many_steps_before_nan_wall(self, monkeypatch):
        """Seeded blow-up: sentinel >= 10 steps earlier than NaN scan.

        Fluxes doubling every step from step 20 stay finite for
        hundreds of steps (doubles reach inf only past 2^1024), so a
        health monitor stripped down to its non-finite scan (eta/CFL
        limits at inf) aborts around step ~400.  The sentinel's growth
        and eta-limit rules fire within a handful of samples.
        """

        def corrupted_run(watcher):
            model = basin_model()
            try:
                model.run(
                    800, monitor=[_Destabilizer(20, 2.0), watcher]
                )
            except NumericalError:
                return model.step_count
            pytest.fail("corrupted run was never aborted")

        monkeypatch.setattr(physics, "SAMPLE_EVERY", 1)
        sentinel_step = corrupted_run(PhysicsSampler())
        monkeypatch.setattr(health_mod, "ETA_LIMIT", math.inf)
        monkeypatch.setattr(health_mod, "CFL_LIMIT", math.inf)
        health_step = corrupted_run(HealthMonitor())
        assert sentinel_step <= 30  # a few samples past the onset
        assert health_step - sentinel_step >= 10

    def test_abort_raises_numerical_error_subclass(self, monkeypatch):
        model = basin_model()
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 1)
        sentinel = PhysicsSampler()
        with pytest.raises(PhysicsDivergenceError) as err:
            model.run(40, monitor=[_Corruptor(10, 1.0e6), sentinel])
        assert isinstance(err.value, NumericalError)
        assert sentinel.worst == DIVERGED
        assert sentinel.aborts == 1
        assert sentinel.events and sentinel.events[-1]["verdict"] == DIVERGED

    def test_samples_past_the_kept_window_are_still_judged(self, monkeypatch):
        # The sample list keeps MAX_SAMPLES; a sentinel that counted the
        # samples it had judged went blind once the list stopped growing.
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 1)
        monkeypatch.setattr(physics, "MAX_SAMPLES", 3)
        sentinel = PhysicsSampler()
        model = basin_model()
        with pytest.raises(PhysicsDivergenceError):
            model.run(40, monitor=[_Corruptor(10, 1.0e6), sentinel])
        assert model.step_count == 10 and len(sentinel.samples) == 3

    def test_patience_escalates_persistent_suspect(self, monkeypatch):
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 1)
        monkeypatch.setattr(physics, "CFL_MARGIN_FLOOR", 0.9)
        sentinel = PhysicsSampler()
        model = basin_model()  # margin ~0.5 < 0.9 floor: always suspect
        with pytest.raises(PhysicsDivergenceError):
            model.run(5, monitor=sentinel)
        assert sentinel.worst == DIVERGED
        verdicts = [s.verdict for s in sentinel.samples]
        assert verdicts[:3] == [SUSPECT, SUSPECT, DIVERGED]

    def test_reset_baseline_clears_evidence_keeps_history(self, monkeypatch):
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 1)
        sentinel = PhysicsSampler()
        model = basin_model()
        with pytest.raises(PhysicsDivergenceError):
            model.run(12, monitor=[_Corruptor(5, 50.0), sentinel])
        worst, events = sentinel.worst, list(sentinel.events)
        assert events
        sentinel.reset_baseline()
        assert sentinel.verdict == HEALTHY
        assert sentinel.samples == []
        assert sentinel.worst == worst  # reporting history preserved
        assert sentinel.events == events


# ---------------------------------------------------------------------------
# Monitor composition (satellite 3)
# ---------------------------------------------------------------------------


class TestCompositeMonitor:
    def test_list_of_monitors_runs_all_in_order(self):
        calls = []

        class Probe:
            def __init__(self, tag):
                self.tag = tag

            def after_step(self, model):
                calls.append((self.tag, model.step_count))

        model = basin_model(n=10)
        model.run(2, monitor=[Probe("a"), Probe("b")])
        assert calls == [("a", 1), ("b", 1), ("a", 2), ("b", 2)]

    def test_rejects_non_monitor(self):
        with pytest.raises(ConfigurationError):
            CompositeMonitor([object()])

    def test_reset_baseline_propagates(self):
        owned = PhysicsSampler()  # reset through the health monitor owning it
        sentinel = PhysicsSampler()
        composite = CompositeMonitor([HealthMonitor(owned), sentinel])
        model = basin_model(n=10)
        model.run(3, monitor=composite)
        sentinel._v0 = 123.0
        owned._v0 = 123.0
        composite.reset_baseline()
        assert owned._v0 is None
        assert sentinel._v0 is None
        assert len(composite.monitors) == 2


# ---------------------------------------------------------------------------
# Gauges: arrival times + resume survival (satellite 2)
# ---------------------------------------------------------------------------


class TestGaugeArrival:
    def test_arrival_time_and_summary(self):
        model = basin_model(amplitude=1.0)
        rec = GaugeRecorder(
            model, [("near", 2000.0, 2000.0), ("far", 200.0, 200.0)]
        )
        model.run(40, monitor=rec)
        near, far = rec.gauges
        # Born inside the hump: arrives at the first recorded sample.
        assert near.arrival_time(0.05) == near.times[0]
        t_far = far.arrival_time(0.05)
        assert math.isfinite(t_far) and t_far > 0.0
        assert far.arrival_time(1e9) == float("inf")
        assert "arrival" in rec.summary()

    def test_empty_series_is_inf_not_nan(self):
        model = basin_model(n=10)
        rec = GaugeRecorder(model, [("g", 500.0, 500.0)])
        assert math.isinf(rec.gauges[0].arrival_time())
        assert "—" in rec.summary()

    def test_restore_round_trip(self):
        model = basin_model(n=10)
        rec = GaugeRecorder(model, [("a", 300.0, 300.0), ("b", 700.0, 700.0)])
        rec.restore([0.0, 1.0, 2.0], [[0.0, 0.0], [0.02, 0.0], [0.5, 0.1]])
        a, b = rec.gauges
        assert a.arrival_time(0.01) == 1.0
        assert b.arrival_time(0.01) == 2.0
        with pytest.raises(ConfigurationError):
            rec.restore([0.0], [[1.0]])  # row width != station count

    def test_recorder_survives_rundir_resume(self, tmp_path):
        from repro.persist.products import ProductStreamer
        from repro.persist.store import RunStore

        model = basin_model(n=10)
        store = RunStore(tmp_path / "run")
        streamer = ProductStreamer(
            store, model, stations=[("a", 300.0, 300.0)]
        )
        model.run(6, monitor=streamer)
        full = streamer.recorder.gauges[0]

        # A fresh process resumes from a step-4 snapshot: in-memory
        # gauge history is gone until the streamer reloads it from
        # gauges.csv, so arrival times span the whole run.
        model2 = basin_model(n=10)
        model2.run(4)
        streamer2 = ProductStreamer(
            store, model2, stations=[("a", 300.0, 300.0)]
        )
        streamer2.sync_resume_point(model2)
        g = streamer2.recorder.gauges[0]
        assert len(g.times) == 4
        # CSV stores %.6f / %.9e — compare at stored precision.
        assert g.times == pytest.approx(full.times[:4], abs=1e-6)
        assert g.eta == pytest.approx(full.eta[:4], rel=1e-8)


# ---------------------------------------------------------------------------
# Validity SLO (zero traffic is undefined, not burning)
# ---------------------------------------------------------------------------


class TestValiditySLO:
    def test_validity_in_default_slos(self):
        assert any(s.name == "validity" for s in DEFAULT_SLOS)
        engine = SLOEngine()
        assert engine.knows("validity")
        assert not engine.knows("no-such-slo")

    def test_zero_traffic_burn_undefined_not_burning(self):
        engine = SLOEngine()
        # Traffic on other objectives, none carrying verdicts.
        for k in range(20):
            engine.record("availability", 60.0 * k, True)
        report = engine.evaluate(3600.0)
        validity = next(
            s for s in report.statuses if s.name == "validity"
        )
        assert validity.total == 0
        assert validity.attainment == 1.0
        assert validity.burn_rates == {}  # undefined, not infinite
        assert not validity.exhausted
        assert engine.burn_rate("validity", 3600.0, 300.0) is None
        lines, ok = render_slo_doc(report.to_dict())
        assert ok

    def test_unhealthy_verdicts_burn_the_budget(self):
        engine = SLOEngine()
        for k in range(100):
            engine.record("validity", float(k), k % 10 != 0)  # 90 % good
        validity = next(
            s
            for s in engine.evaluate(100.0).statuses
            if s.name == "validity"
        )
        assert validity.total == 100
        assert validity.attainment == pytest.approx(0.9)
        assert validity.exhausted  # 10 % bad >> 5 % budget


# ---------------------------------------------------------------------------
# Resilient forecast integration: abort early, recover, report
# ---------------------------------------------------------------------------


class TestForecastIntegration:
    def test_clean_forecast_is_healthy(self, monkeypatch):
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 2)
        report = run_resilient_forecast(
            nested_grid(), FlatBathymetry(50.0),
            config=SimulationConfig(dt=1.0, boundary="wall"),
            source=source(), horizon_s=60.0,
        )
        assert report.status == "complete"
        assert report.physics_verdict == HEALTHY
        assert report.physics["aborts"] == 0
        assert report.physics["events"] == []
        assert "physics" in report.summary()

    def test_seeded_divergence_aborts_and_recovers(self, monkeypatch):
        # A finite 60 m spike slips under the health monitor's 100 m
        # eta limit; only the sentinel's growth rule sees it.  The
        # sentinel abort must feed the existing rollback machinery and
        # the run must still complete.
        plan = FaultPlan(
            [FaultSpec(kind="nan", step=30, block=0, field="z", value=60.0)]
        )
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 1)
        report = run_resilient_forecast(
            nested_grid(), FlatBathymetry(50.0),
            config=SimulationConfig(dt=1.0, boundary="wall"),
            source=source(), horizon_s=60.0, fault_plan=plan,
        )
        assert report.status == "complete"
        assert report.rollbacks >= 1
        assert report.physics_verdict == DIVERGED
        assert report.physics["aborts"] >= 1
        assert any(
            ev["verdict"] == DIVERGED for ev in report.physics["events"]
        )

    def test_physics_json_written_to_rundir(self, tmp_path, monkeypatch):
        from repro.persist.store import RunStore

        store = RunStore(tmp_path / "run")
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 2)
        report = run_resilient_forecast(
            nested_grid(), FlatBathymetry(50.0),
            config=SimulationConfig(dt=1.0, boundary="wall"),
            source=source(), horizon_s=40.0,
            store=store,
        )
        assert report.status == "complete"
        doc = load_physics_report(store.rundir / PHYSICS_NAME)
        assert doc["verdict"] == HEALTHY
        assert doc["samples"]
        text, ok = inspect_physics(store.rundir)
        assert ok and "physics verdict: healthy" in text


# ---------------------------------------------------------------------------
# Soak: simulated divergence, validity scoring, early abort
# ---------------------------------------------------------------------------


class TestSoakDivergence:
    def test_divergence_soak_scores_validity_and_aborts_early(self, tmp_path):
        rundir = tmp_path / "soak"
        report = run_soak(
            SoakConfig(
                duration_s=1200.0, seed=11, diverge_fraction=0.3
            ),
            rundir=rundir,
        )
        counts = report.verdicts.get("physics", {})
        assert counts.get(DIVERGED, 0) > 0
        assert counts.get(HEALTHY, 0) > 0
        assert "physics verdicts" in report.summary()

        doc = load_physics_report(rundir / PHYSICS_NAME)
        assert doc["verdict"] == DIVERGED
        assert doc["counts"] == counts
        diverged = [
            r for r in doc["requests"] if r["verdict"] == DIVERGED
        ]
        assert diverged
        for r in diverged:
            # The simulated sentinel aborts before half the deadline
            # budget is spent (acceptance criterion).
            assert r["cost_s"] < 0.5 * r["deadline_s"]

        # Diverged completions burn the validity budget.
        validity = next(
            s for s in report.slo["slos"] if s["name"] == "validity"
        )
        assert validity["total"] == sum(counts.values())
        assert validity["bad"] == counts.get(DIVERGED, 0)

    def test_clean_soak_validity_untouched_by_divergence(self):
        report = run_soak(
            SoakConfig(duration_s=600.0, seed=3, diverge_fraction=0.0)
        )
        assert set(report.verdicts.get("physics", {})) <= {HEALTHY}
        validity = next(
            s for s in report.slo["slos"] if s["name"] == "validity"
        )
        assert validity["bad"] == 0


# ---------------------------------------------------------------------------
# Artifacts: physics.json, Chrome counters, metrics, CLI
# ---------------------------------------------------------------------------


class TestArtifacts:
    def _sentinel_after_run(self, monkeypatch, corrupt=False):
        model = basin_model()
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 2)
        sentinel = PhysicsSampler()
        monitors = [sentinel]
        if corrupt:
            monitors.insert(0, _Corruptor(10, 50.0))
        with (pytest.raises(PhysicsDivergenceError) if corrupt
              else contextlib.nullcontext()):
            model.run(30, monitor=monitors)
        return sentinel

    def test_physics_json_round_trip(self, tmp_path, monkeypatch):
        sentinel = self._sentinel_after_run(monkeypatch, corrupt=True)
        path = write_physics_json(
            tmp_path / PHYSICS_NAME, physics_doc(sentinel)
        )
        doc = load_physics_report(path)
        assert doc["schema"] == "repro.obs.physics/1"
        assert doc["verdict"] == sentinel.worst
        assert len(doc["samples"]) == len(sentinel.samples)
        assert doc["events"] == sentinel.events
        lines, ok = render_physics_doc(doc)
        text = "\n".join(lines)
        assert "sentinel events" in text
        assert ok == (sentinel.worst != DIVERGED)

    def test_load_rejects_foreign_json(self, tmp_path):
        p = tmp_path / PHYSICS_NAME
        p.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(PersistError):
            load_physics_report(p)

    def test_chrome_counter_tracks_validate(self, monkeypatch):
        sentinel = self._sentinel_after_run(monkeypatch)
        events = physics_counter_events(sentinel.samples)
        counters = [e for e in events if e.get("ph") == "C"]
        assert counters
        names = {e["name"] for e in counters}
        assert "physics:mass_drift" in names
        assert "physics:cfl_margin" in names
        doc = {"traceEvents": events, "displayTimeUnit": "ms"}
        validate_chrome_trace(doc)  # raises on malformed events

    def test_counter_tracks_merge_into_trace_export(self, tmp_path, monkeypatch):
        from repro.obs.export import chrome_trace

        obs.enable()
        model = basin_model(n=10)
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 1)
        sentinel = PhysicsSampler()
        model.run(4, monitor=sentinel)
        doc = chrome_trace(physics_samples=sentinel.samples)
        validate_chrome_trace(doc)
        assert any(
            e.get("ph") == "C" for e in doc["traceEvents"]
        )

    def test_metrics_exported_when_armed(self, monkeypatch):
        obs.enable()
        model = basin_model(n=10)
        monkeypatch.setattr(physics, "SAMPLE_EVERY", 1)
        sentinel = PhysicsSampler()
        model.run(6, monitor=sentinel)
        snap = obs.get_registry().to_dict()
        assert snap["counters"]["repro_physics_samples_total"] == 6
        assert "repro_physics_cfl_margin" in snap["gauges"]
        assert snap["gauges"]["repro_physics_verdict"] == 0

    def test_cli_inspect_physics(self, tmp_path, capsys):
        write_physics_json(
            tmp_path / PHYSICS_NAME,
            physics_doc(sampler=PhysicsSampler(), verdict=HEALTHY),
        )
        assert main(["inspect", str(tmp_path), "--physics"]) == 0
        assert "physics verdict: healthy" in capsys.readouterr().out

    def test_cli_inspect_physics_gates_on_divergence(self, tmp_path, capsys):
        write_physics_json(
            tmp_path / PHYSICS_NAME,
            physics_doc(verdict=DIVERGED, counts={DIVERGED: 2}),
        )
        assert main(["inspect", str(tmp_path), "--physics"]) == 7
        capsys.readouterr()

    def test_cli_inspect_physics_missing_is_structured(
        self, tmp_path, capsys
    ):
        assert main(["inspect", str(tmp_path), "--physics"]) == 6
        assert "no-physics" in capsys.readouterr().out
