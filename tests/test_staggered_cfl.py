"""Tests for repro.grid.staggered and repro.grid.cfl."""

import math

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.errors import CFLError
from repro.grid import staggered as sg
from repro.grid.cfl import (
    cfl_time_step,
    check_cfl,
    check_cfl_depth_field,
    max_wave_speed,
)


class TestStaggeredShapes:
    def test_shape_relations(self):
        ny, nx, g = 7, 11, sg.NGHOST
        ez = sg.eta_shape(ny, nx)
        mz = sg.flux_m_shape(ny, nx)
        nz = sg.flux_n_shape(ny, nx)
        assert ez == (ny + 2 * g, nx + 2 * g)
        assert mz == (ez[0], ez[1] + 1)
        assert nz == (ez[0] + 1, ez[1])

    def test_interior_selects_physical_cells(self):
        ny, nx = 5, 8
        arr = np.zeros(sg.eta_shape(ny, nx))
        arr[sg.interior(ny, nx)] = 1.0
        assert arr.sum() == ny * nx
        # Ghosts untouched.
        assert arr[0, :].sum() == 0 and arr[:, -1].sum() == 0

    def test_two_ghost_layers(self):
        # The upwind advection requires two ghost layers (module docs).
        assert sg.NGHOST == 2


class TestCFL:
    def test_wave_speed_formula(self):
        assert max_wave_speed(100.0) == pytest.approx(
            math.sqrt(2 * GRAVITY * 100.0)
        )

    def test_zero_depth_infinite_dt(self):
        assert cfl_time_step(10.0, 0.0) == math.inf

    def test_paper_kochi_operating_point(self):
        # dx = 10 m at dt = 0.2 s admits depths up to dx^2/(2 g dt^2).
        h_limit = 10.0**2 / (2 * GRAVITY * 0.2**2)
        check_cfl(10.0, 0.2, 0.99 * h_limit)
        with pytest.raises(CFLError):
            check_cfl(10.0, 0.2, 1.01 * h_limit)

    def test_safety_factor_shrinks_dt(self):
        full = cfl_time_step(10.0, 50.0, safety=1.0)
        assert cfl_time_step(10.0, 50.0, safety=0.5) == pytest.approx(full / 2)

    def test_invalid_args(self):
        with pytest.raises(CFLError):
            cfl_time_step(-1.0, 10.0)
        with pytest.raises(CFLError):
            cfl_time_step(10.0, 10.0, safety=0.0)
        with pytest.raises(CFLError):
            check_cfl(10.0, -0.1, 10.0)
        with pytest.raises(CFLError):
            max_wave_speed(-5.0)

    def test_depth_field_ignores_land(self):
        depth = np.array([[-500.0, 10.0], [5.0, -1000.0]])
        # Land cells (negative) must not constrain the time step.
        check_cfl_depth_field(10.0, 0.2, depth)

    def test_depth_field_all_land_is_unconstrained(self):
        check_cfl_depth_field(1.0, 100.0, np.full((3, 3), -10.0))
