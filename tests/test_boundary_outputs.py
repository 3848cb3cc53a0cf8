"""Tests for repro.core.boundary and repro.core.outputs."""

import numpy as np
import pytest

from repro.core.boundary import (
    apply_open_boundary,
    apply_wall_boundary,
    fill_ghosts_zero_gradient,
)
from repro.core.outputs import OutputAccumulator
from repro.grid.block import Block
from repro.grid.staggered import NGHOST, eta_shape, flux_m_shape, flux_n_shape

G = NGHOST


def fields(ny=4, nx=6, depth=100.0):
    z = np.zeros(eta_shape(ny, nx))
    m = np.ones(flux_m_shape(ny, nx))
    n = np.ones(flux_n_shape(ny, nx))
    h = np.full(eta_shape(ny, nx), depth)
    return z, m, n, h


class TestWallBoundary:
    def test_zeroes_all_edges(self):
        ny, nx = 4, 6
        z, m, n, h = fields(ny, nx)
        apply_wall_boundary(m, n)
        assert np.all(m[G : G + ny, G] == 0.0)
        assert np.all(m[G : G + ny, G + nx] == 0.0)
        assert np.all(n[G, G : G + nx] == 0.0)
        assert np.all(n[G + ny, G : G + nx] == 0.0)
        # Interior faces untouched.
        assert np.all(m[G : G + ny, G + 1 : G + nx] == 1.0)

    def test_selective_sides(self):
        ny, nx = 4, 6
        z, m, n, h = fields(ny, nx)
        apply_wall_boundary(m, n, sides=("W",))
        assert np.all(m[G : G + ny, G] == 0.0)
        assert np.all(m[G : G + ny, G + nx] == 1.0)


class TestOpenBoundary:
    def test_outgoing_characteristic_sign(self):
        ny, nx = 4, 6
        z, m, n, h = fields(ny, nx)
        z[...] = 0.5  # positive elevation everywhere
        apply_open_boundary(z, m, n, h)
        # East edge radiates outward (+x), west edge outward (-x).
        assert np.all(m[G : G + ny, G + nx] > 0.0)
        assert np.all(m[G : G + ny, G] < 0.0)
        assert np.all(n[G + ny, G : G + nx] > 0.0)
        assert np.all(n[G, G : G + nx] < 0.0)

    def test_magnitude_is_characteristic(self):
        ny, nx = 4, 6
        z, m, n, h = fields(ny, nx, depth=100.0)
        z[...] = 0.5
        apply_open_boundary(z, m, n, h)
        c = np.sqrt(9.80665 * 100.5)
        assert m[G + 1, G + nx] == pytest.approx(c * 0.5)

    def test_dry_edge_radiates_nothing(self):
        ny, nx = 4, 6
        z, m, n, h = fields(ny, nx, depth=-5.0)
        z[...] = 5.0
        apply_open_boundary(z, m, n, h)
        assert np.all(m[G : G + ny, G + nx] == 0.0)


class TestGhostFill:
    def test_zero_gradient_columns_then_rows(self):
        arr = np.zeros((8, 8))
        arr[G:-G, G:-G] = np.arange(16).reshape(4, 4) + 1.0
        fill_ghosts_zero_gradient(arr, ("W", "E", "S", "N"))
        # Columns copy the first/last physical column.
        assert np.all(arr[G:-G, 0] == arr[G:-G, G])
        assert np.all(arr[G:-G, -1] == arr[G:-G, -G - 1])
        # Rows copy whole padded rows -> corners equal corner cells.
        assert arr[0, 0] == arr[G, G]
        assert arr[-1, -1] == arr[-G - 1, -G - 1]

    def test_partial_sides(self):
        arr = np.zeros((8, 8))
        arr[G:-G, G:-G] = 1.0
        fill_ghosts_zero_gradient(arr, ("N",))
        assert np.all(arr[-1, G:-G] == 1.0)
        assert np.all(arr[:, 0] == 0.0)


class TestOutputAccumulator:
    def make(self, ny=4, nx=4, depth=10.0):
        blk = Block(0, 1, 0, 0, nx, ny)
        d = np.full((ny, nx), depth)
        return blk, d, OutputAccumulator(blk, d, np.zeros((ny, nx)))

    def test_zmax_tracks_running_maximum(self):
        blk, d, acc = self.make()
        z = np.zeros(eta_shape(4, 4))
        m = np.zeros(flux_m_shape(4, 4))
        n = np.zeros(flux_n_shape(4, 4))
        h = np.full(eta_shape(4, 4), 10.0)
        z[G + 1, G + 1] = 2.0
        acc.update(z, m, n, h, time=1.0)
        z[G + 1, G + 1] = 1.0
        z[G + 2, G + 2] = 3.0
        acc.update(z, m, n, h, time=2.0)
        assert acc.zmax[1, 1] == 2.0
        assert acc.zmax[2, 2] == 3.0

    def test_arrival_time_first_crossing(self):
        blk, d, acc = self.make()
        z = np.zeros(eta_shape(4, 4))
        m = np.zeros(flux_m_shape(4, 4))
        n = np.zeros(flux_n_shape(4, 4))
        h = np.full(eta_shape(4, 4), 10.0)
        acc.update(z, m, n, h, time=1.0)
        assert np.all(np.isinf(acc.arrival_time))
        z[G, G] = 0.5
        acc.update(z, m, n, h, time=2.0)
        acc.update(z, m, n, h, time=3.0)
        assert acc.arrival_time[0, 0] == 2.0
        assert np.isinf(acc.arrival_time[1, 1])

    def test_inundation_only_on_land(self):
        blk = Block(0, 1, 0, 0, 2, 2)
        depth = np.array([[-1.0, 10.0], [10.0, 10.0]])
        acc = OutputAccumulator(blk, depth, np.where(depth < 0, -depth, 0.0))
        z = np.zeros(eta_shape(2, 2))
        m = np.zeros(flux_m_shape(2, 2))
        n = np.zeros(flux_n_shape(2, 2))
        h = np.pad(depth, G, mode="edge")
        z[G:-G, G:-G] = np.array([[1.5, 0.0], [0.0, 0.0]])  # flood the land cell
        acc.update(z, m, n, h, time=5.0)
        assert acc.inundation_max[0, 0] == pytest.approx(0.5)
        assert acc.inundation_max[1, 1] == 0.0
        assert acc.inundated_area(10.0) == pytest.approx(100.0)

    def test_speed_capped_and_thin_film_ignored(self):
        blk, d, acc = self.make(depth=0.005)  # 5 mm of water
        z = np.zeros(eta_shape(4, 4))
        m = np.full(flux_m_shape(4, 4), 10.0)
        n = np.zeros(flux_n_shape(4, 4))
        h = np.full(eta_shape(4, 4), 0.005)
        acc.update(z, m, n, h, time=1.0)
        assert acc.vmax.max() == 0.0  # below SPEED_MIN_DEPTH

    def test_shape_validation(self):
        blk = Block(0, 1, 0, 0, 4, 4)
        with pytest.raises(ValueError):
            OutputAccumulator(blk, np.zeros((2, 2)), np.zeros((4, 4)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_models_accumulators_never_alias_its_state(self, dtype):
        """``RTiModel`` hands the accumulator views of the live state; what it
        keeps (each copied once, by the accumulator) must be its own."""
        from repro.fault import GaussianSource
        from repro.validation.analytic import SlopedBathymetry, single_block_model

        model = single_block_model(
            12, 10, 50.0, SlopedBathymetry(20.0, 20.0 / 400.0), boundary="wall", dtype=dtype
        )
        for _ in range(2):  # as constructed, and after a source re-makes them
            (st,), (acc,) = model.states.values(), model.outputs.values()
            for name, kept in acc.product_arrays().items():
                assert kept.base is None and kept.flags.c_contiguous, name
                for live in (*st.state_arrays().values(), st.hz):
                    assert not np.shares_memory(kept, live), name
            assert acc.product_arrays()["z0ref"].tobytes() == st.eta_interior().tobytes()
            model.set_initial_condition(
                GaussianSource(x0=300.0, y0=200.0, amplitude=1.0, sigma=100.0)
            )
        st.z_old[...] += 1.0  # the reference level does not follow the state
        assert not np.array_equal(acc.product_arrays()["z0ref"], st.eta_interior())
