"""Integration tests of the coupled RTiModel: physics correctness."""

import math

import numpy as np
import pytest

from repro.core import RTiModel, SimulationConfig
from repro.errors import CFLError, ConfigurationError
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.topo import build_mini_kochi
from repro.validation import (
    FlatBathymetry,
    SlopedBathymetry,
    lake_at_rest_residual,
    mass_residual,
    single_block_model,
    standing_wave_solution,
)
from repro.validation.analytic import standing_wave_period


class TestStandingWave:
    """Linear standing wave vs the exact solution."""

    def test_one_period_accuracy(self):
        L, h, n = 100_000.0, 100.0, 100
        model = single_block_model(
            n, n, L / n, FlatBathymetry(h),
            nonlinear=False, boundary="wall", manning=0.0,
        )
        xs = (np.arange(n) + 0.5) * (L / n)
        eta0 = standing_wave_solution(0.1, L, h, xs, 0.0)
        model.states[0].set_initial_eta(np.tile(eta0, (n, 1)))
        period = standing_wave_period(L, h)
        steps = int(round(period / model.config.dt))
        model.run(steps)
        exact = standing_wave_solution(0.1, L, h, xs, steps * model.config.dt)
        mid = model.states[0].eta_interior()[n // 2, :]
        assert np.abs(mid - exact).max() < 5e-4

    def test_amplitude_preserved(self):
        # The leap-frog scheme is non-dissipative for linear waves.
        L, h, n = 100_000.0, 100.0, 60
        model = single_block_model(
            n, n, L / n, FlatBathymetry(h),
            nonlinear=False, boundary="wall", manning=0.0,
        )
        xs = (np.arange(n) + 0.5) * (L / n)
        model.states[0].set_initial_eta(
            np.tile(standing_wave_solution(0.1, L, h, xs, 0.0), (n, 1))
        )
        period = standing_wave_period(L, h)
        model.run(int(round(3 * period / model.config.dt)))
        amp = np.abs(model.states[0].eta_interior()).max()
        assert amp == pytest.approx(0.1, rel=0.02)


class TestLakeAtRest:
    def test_still_water_over_slope_stays_still(self):
        model = single_block_model(
            40, 40, 100.0, SlopedBathymetry(50.0, 0.005),
            boundary="wall",
        )
        model.run(50)
        assert lake_at_rest_residual(model) < 1e-12

    def test_still_water_with_shoreline_stays_still(self):
        # Bathymetry crossing zero: the wet/dry machinery must not create
        # spurious waves at the shoreline.
        model = single_block_model(
            40, 40, 100.0, SlopedBathymetry(10.0, 0.005), boundary="wall"
        )
        model.run(50)
        assert lake_at_rest_residual(model) < 1e-12


class TestConservation:
    def test_closed_basin_conserves_mass(self):
        model = single_block_model(
            50, 50, 100.0, FlatBathymetry(50.0),
            boundary="wall",
        )
        model.set_initial_condition(
            GaussianSource(x0=2500.0, y0=2500.0, amplitude=1.0, sigma=600.0)
        )
        v0 = model.total_volume()
        model.run(200)
        assert abs(mass_residual(model, v0)) < 1e-12

    def test_open_boundary_loses_mass(self):
        model = single_block_model(
            50, 50, 100.0, FlatBathymetry(50.0), boundary="open"
        )
        model.set_initial_condition(
            GaussianSource(x0=2500.0, y0=2500.0, amplitude=1.0, sigma=600.0)
        )
        v0 = model.total_volume()
        model.run(600)
        # The hump radiates out of the domain: volume must decrease
        # toward the rest volume.
        assert model.total_volume() < v0
        # And the interior becomes quiescent.
        assert model.max_eta() < 0.2

    def test_wave_speed(self):
        # A radiating front travels at sqrt(g h).
        h, n, dx = 100.0, 120, 500.0
        model = single_block_model(
            n, n, dx, FlatBathymetry(h), nonlinear=False, boundary="open",
            manning=0.0,
        )
        cx = n * dx / 2
        model.set_initial_condition(
            GaussianSource(x0=cx, y0=cx, amplitude=1.0, sigma=4 * dx)
        )
        t_target = 40.0 * model.config.dt * 4
        steps = int(t_target / model.config.dt)
        model.run(steps)
        eta = model.states[0].eta_interior()
        # Radius of the wave crest along the x axis through the center.
        row = eta[n // 2, n // 2 :]
        crest = int(np.argmax(row))
        r = crest * dx
        c = math.sqrt(9.80665 * h)
        assert r == pytest.approx(c * steps * model.config.dt, rel=0.15)


class TestNonlinearEffects:
    def test_friction_damps_wave(self):
        def run(manning):
            m = single_block_model(
                40, 40, 50.0, FlatBathymetry(2.0), boundary="wall",
                manning=manning,
            )
            m.set_initial_condition(
                GaussianSource(x0=1000.0, y0=1000.0, amplitude=0.5, sigma=200.0)
            )
            m.run(300)
            return float(np.abs(m.states[0].eta_interior()).max())

        assert run(0.05) < run(0.0)


class TestMiniKochi:
    @pytest.fixture(scope="class")
    def model(self):
        mk = build_mini_kochi()
        m = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
        # Source placed directly offshore of the nested coastal bands.
        m.set_initial_condition(
            GaussianSource(x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0)
        )
        m.run(900)
        return m

    def test_stays_finite(self, model):
        for st in model.states.values():
            assert np.isfinite(st.z_old).all()
            assert np.isfinite(st.m_old).all()

    def test_wave_reaches_finest_level(self, model):
        lvl5_ids = [b.block_id for b in model.grid.level(5).blocks]
        arrived = sum(
            int(np.isfinite(model.outputs[b].arrival_time).sum())
            for b in lvl5_ids
        )
        assert arrived > 0

    def test_shoaling_amplifies(self, model):
        # Max water level at the finest (coastal) level exceeds the
        # offshore source amplitude (Green's-law shoaling).
        zmax5 = max(
            float(model.outputs[b.block_id].zmax.max())
            for b in model.grid.level(5).blocks
        )
        assert zmax5 > 2.0

    def test_inundation_occurs(self, model):
        area = sum(
            model.outputs[b.block_id].inundated_area(10.0)
            for b in model.grid.level(5).blocks
        )
        assert area > 0.0

    def test_speeds_physical(self, model):
        assert model.max_speed() <= 20.0 + 1e-9


class TestModelConfiguration:
    def test_cfl_validated_at_construction(self):
        grid = NestedGrid(
            [GridLevel(index=1, dx=10.0, blocks=[Block(0, 1, 0, 0, 4, 4)])]
        )
        with pytest.raises(CFLError):
            RTiModel(grid, FlatBathymetry(4000.0), SimulationConfig(dt=0.5))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(dt=-1.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(boundary="periodic")
        with pytest.raises(ConfigurationError):
            SimulationConfig(restriction="nope")

    def test_run_negative_steps_rejected(self):
        model = single_block_model(8, 8, 100.0, FlatBathymetry(10.0))
        with pytest.raises(ConfigurationError):
            model.run(-5)
