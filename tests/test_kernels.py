"""Tests for the NLMASS and NLMNT2 kernels (repro.core.mass/momentum)."""

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.core.mass import nlmass
from repro.core.momentum import nlmnt2
from repro.grid.staggered import (
    NGHOST,
    eta_shape,
    flux_m_shape,
    flux_n_shape,
    interior,
)

G = NGHOST


def fields(ny=6, nx=8, depth=100.0):
    z = np.zeros(eta_shape(ny, nx))
    m = np.zeros(flux_m_shape(ny, nx))
    n = np.zeros(flux_n_shape(ny, nx))
    h = np.full(eta_shape(ny, nx), depth)
    return z, m, n, h


class TestNlmass:
    def test_rest_state_stays_at_rest(self):
        z, m, n, h = fields()
        out = np.empty_like(z)
        nlmass(z, m, n, h, 0.1, 10.0, out=out)
        assert np.all(out == 0.0)

    def test_divergence_lowers_level(self):
        ny, nx = 4, 4
        z, m, n, h = fields(ny, nx)
        # Uniform positive M: flux difference zero inside, but set a
        # converging pattern on one cell.
        m[G + 1, G + 2] = 1.0  # left face of cell (1,2): inflow
        out = np.empty_like(z)
        nlmass(z, m, n, h, dt=2.0, dx=10.0, out=out)
        zi = out[interior(ny, nx)]
        # Cell (1,2) loses (M_right - M_left) = -1 -> gains level.
        assert zi[1, 2] == pytest.approx(2.0 / 10.0)
        # Cell (1,1) has M_right = 1 -> loses level.
        assert zi[1, 1] == pytest.approx(-2.0 / 10.0)

    def test_mass_conserving_in_closed_box(self):
        ny, nx = 6, 6
        z, m, n, h = fields(ny, nx)
        rng = np.random.default_rng(0)
        # Random interior fluxes, zero on the box edges.
        m[G : G + ny, G + 1 : G + nx] = rng.normal(0, 1, (ny, nx - 1))
        n[G + 1 : G + ny, G : G + nx] = rng.normal(0, 1, (ny - 1, nx))
        out = np.empty_like(z)
        nlmass(z, m, n, h, 0.05, 10.0, out=out)
        assert out[interior(ny, nx)].sum() == pytest.approx(0.0, abs=1e-12)

    def test_dry_clamp(self):
        ny, nx = 4, 4
        z, m, n, h = fields(ny, nx, depth=0.05)
        m[G + 1, G + 2] = 1.0  # strong outflow from cell (1,1)
        out = np.empty_like(z)
        nlmass(z, m, n, h, dt=1.0, dx=10.0, out=out)
        zi = out[interior(ny, nx)]
        # Cell (1,1) would drop to -0.1 < -h: clamped to ground (-0.05).
        assert zi[1, 1] == pytest.approx(-0.05)

    def test_ghosts_copied_from_old(self):
        z, m, n, h = fields()
        z[0, 0] = 7.0
        out = np.empty_like(z)
        nlmass(z, m, n, h, 0.1, 10.0, out=out)
        assert out[0, 0] == 7.0


class TestMomentum:
    def test_rest_state_no_flux(self):
        z, m, n, h = fields()
        out_m = np.empty_like(m)
        out_n = np.empty_like(n)
        nlmnt2(z, m, n, h, 0.1, 10.0, 0.025, out_m=out_m, out_n=out_n)
        assert np.all(out_m[interior(6, 8, G)[0], :] == 0.0)
        assert np.all(out_n == 0.0)

    def test_pressure_gradient_drives_flow(self):
        ny, nx = 4, 6
        z, m, n, h = fields(ny, nx, depth=100.0)
        # Water level drops along +x: flow should accelerate in +x.
        for i in range(z.shape[1]):
            z[:, i] = 1.0 - 0.01 * i
        out_m = np.empty_like(m)
        out_n = np.empty_like(n)
        nlmnt2(z, m, n, h, dt=0.1, dx=10.0, manning=0.0, out_m=out_m, out_n=out_n)
        inner = out_m[G : G + ny, G + 1 : G + nx]
        assert np.all(inner > 0.0)
        # Check M = -g D_face dt dz/dx with D_face = h + mean(z_L, z_R).
        d_face = 100.0 + 0.5 * (z[G + 1, G + 1] + z[G + 1, G + 2])
        expected = GRAVITY * d_face * 0.1 * (0.01 / 10.0)
        assert inner[1, 1] == pytest.approx(expected, rel=1e-6)

    def test_symmetry_xy(self):
        # The N update must mirror the M update under transposition.
        ny = nx = 6
        rng = np.random.default_rng(1)
        z, m, n, h = fields(ny, nx)
        z += rng.normal(0, 0.1, z.shape)
        out_m = np.empty_like(m)
        out_n = np.empty_like(n)
        nlmnt2(z, m, n, h, 0.1, 10.0, 0.025, out_m=out_m, out_n=out_n)
        # Transposed problem.
        zt = z.T.copy()
        ht = h.T.copy()
        out_m2 = np.empty_like(n.T).copy()
        out_n2 = np.empty_like(m.T).copy()
        nlmnt2(zt, n.T.copy(), m.T.copy(), ht, 0.1, 10.0, 0.025,
               out_m=out_m2, out_n=out_n2)
        assert np.allclose(out_n.T, out_m2)
        assert np.allclose(out_m.T, out_n2)

    def test_friction_reduces_flux(self):
        ny, nx = 4, 6
        z, m, n, h = fields(ny, nx, depth=1.0)  # shallow -> strong friction
        m[...] = 0.5
        out_nofric = np.empty_like(m)
        out_fric = np.empty_like(m)
        dummy_n = np.empty_like(n)
        nlmnt2(z, m, n, h, 0.5, 10.0, 0.0, out_m=out_nofric, out_n=dummy_n)
        nlmnt2(z, m, n, h, 0.5, 10.0, 0.05, out_m=out_fric, out_n=dummy_n)
        sl = (slice(G, G + ny), slice(G + 1, G + nx))
        assert np.all(np.abs(out_fric[sl]) < np.abs(out_nofric[sl]))

    def test_closed_face_between_dry_cells(self):
        ny, nx = 4, 6
        z, m, n, h = fields(ny, nx, depth=-5.0)  # all land
        z[...] = 5.0  # ground level
        m[...] = 1.0  # spurious flux must be zeroed
        out_m = np.empty_like(m)
        out_n = np.empty_like(n)
        nlmnt2(z, m, n, h, 0.1, 10.0, 0.025, out_m=out_m, out_n=out_n)
        assert np.all(out_m[G : G + ny, G : G + nx + 1] == 0.0)

    def test_overflow_face_opens_toward_lower_land(self):
        ny, nx = 4, 4
        z, m, n, h = fields(ny, nx, depth=-1.0)  # land, 1 m elevation
        h[:, : G + 2] = 10.0  # left half wet, 10 m deep
        z[...] = np.where(h < 0, 1.0, 0.0)
        # Raise water above the land elevation on the wet side.
        z[:, : G + 2] = np.where(h[:, : G + 2] > 0, 2.0, z[:, : G + 2])
        out_m = np.empty_like(m)
        out_n = np.empty_like(n)
        nlmnt2(z, m, n, h, 0.1, 10.0, 0.0, out_m=out_m, out_n=out_n)
        # The face between wet column (G+1) and dry column (G+2) must
        # carry positive (landward) flux: z_wet=2 > -h_land=1.
        face = out_m[G + 1, G + 2]
        assert face > 0.0

    def test_velocity_cap(self):
        ny, nx = 4, 6
        z, m, n, h = fields(ny, nx, depth=0.5)
        # Huge gradient on thin water.
        z[:, : z.shape[1] // 2] = 5.0
        out_m = np.empty_like(m)
        out_n = np.empty_like(n)
        nlmnt2(z, m, n, h, 1.0, 10.0, 0.0, out_m=out_m, out_n=out_n,
               velocity_cap=20.0)
        # |M| <= cap * D_face; D_face <= 5.5+0.5 here.
        assert np.abs(out_m).max() <= 20.0 * 6.0 + 1e-9

    def test_linear_mode_drops_advection(self):
        ny, nx = 6, 6
        rng = np.random.default_rng(2)
        z, m, n, h = fields(ny, nx)
        z += rng.normal(0, 0.01, z.shape)
        m += rng.normal(0, 0.5, m.shape)
        out_lin = np.empty_like(m)
        out_nl = np.empty_like(m)
        dummy = np.empty_like(n)
        nlmnt2(z, m, n, h, 0.1, 10.0, 0.0, out_m=out_lin, out_n=dummy,
               nonlinear=False)
        nlmnt2(z, m, n, h, 0.1, 10.0, 0.0, out_m=out_nl, out_n=dummy,
               nonlinear=True)
        assert not np.allclose(out_lin, out_nl)
