"""Tests for repro.core.state."""

import numpy as np
import pytest

from repro.core.state import BlockState
from repro.errors import GridError
from repro.grid.block import Block
from repro.grid.staggered import eta_shape


def make_state(nx=6, ny=4, depth=100.0):
    blk = Block(0, 1, 0, 0, nx, ny)
    return BlockState(blk, 10.0, np.full((ny, nx), depth))


class TestConstruction:
    def test_accepts_physical_depth_and_pads(self):
        st = make_state()
        assert st.hz.shape == eta_shape(4, 6)
        assert st.hz[0, 0] == 100.0  # edge-padded ghost

    def test_accepts_padded_depth(self):
        blk = Block(0, 1, 0, 0, 6, 4)
        depth = np.full(eta_shape(4, 6), 50.0)
        st = BlockState(blk, 10.0, depth)
        assert st.hz[0, 0] == 50.0

    def test_rejects_wrong_depth_shape(self):
        blk = Block(0, 1, 0, 0, 6, 4)
        with pytest.raises(GridError):
            BlockState(blk, 10.0, np.zeros((3, 3)))

    def test_initial_state_at_rest(self):
        st = make_state()
        assert np.all(st.z_old == 0.0)
        assert np.all(st.m_old == 0.0)
        assert st.total_depth().min() == pytest.approx(100.0)

    def test_land_initialized_to_ground_level(self):
        blk = Block(0, 1, 0, 0, 4, 4)
        depth = np.full((4, 4), -25.0)  # all land, 25 m elevation
        st = BlockState(blk, 10.0, depth)
        assert np.all(st.eta_interior() == 25.0)
        assert st.total_depth().max() == 0.0


class TestDoubleBuffering:
    def test_swap_flips_views(self):
        st = make_state()
        st.z_new[...] = 1.0
        assert st.z_old.max() == 0.0
        st.swap()
        assert st.z_old.max() == 1.0
        assert st.z_new.max() == 0.0

    def test_double_swap_is_identity(self):
        st = make_state()
        a = st.z_old
        st.swap()
        st.swap()
        assert st.z_old is a

    def test_buffers_are_distinct_arrays(self):
        st = make_state()
        assert st.z_old is not st.z_new
        assert st.m_old is not st.m_new
        assert st.n_old is not st.n_new


class TestInitialEta:
    def test_set_initial_eta_writes_both_buffers(self):
        st = make_state()
        eta = np.full((4, 6), 0.5)
        st.set_initial_eta(eta)
        assert np.all(st.eta_interior() == 0.5)
        st.swap()
        assert np.all(st.eta_interior() == 0.5)

    def test_clamps_to_ground(self):
        blk = Block(0, 1, 0, 0, 2, 2)
        depth = np.array([[-10.0, 100.0], [100.0, 100.0]])
        st = BlockState(blk, 10.0, depth)
        st.set_initial_eta(np.full((2, 2), 1.0))
        # Land cell keeps z = 10 (ground), not 1.
        assert st.eta_interior()[0, 0] == 10.0
        assert st.eta_interior()[0, 1] == 1.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(GridError):
            make_state().set_initial_eta(np.zeros((2, 2)))


class TestVolume:
    def test_volume_at_rest(self):
        st = make_state(nx=6, ny=4, depth=100.0)
        assert st.volume() == pytest.approx(6 * 4 * 100.0 * 10.0 * 10.0)

    def test_volume_with_eta(self):
        st = make_state(nx=2, ny=2, depth=10.0)
        st.set_initial_eta(np.full((2, 2), 1.0))
        assert st.volume() == pytest.approx(4 * 11.0 * 100.0)
