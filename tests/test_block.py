"""Tests for repro.grid.block."""

import pytest

from repro.errors import GridError
from repro.grid.block import Block


def make(bid=0, level=1, gi0=0, gj0=0, nx=9, ny=6):
    return Block(bid, level, gi0, gj0, nx, ny)


class TestConstruction:
    def test_basic_properties(self):
        b = make(nx=9, ny=6, gi0=3, gj0=12)
        assert b.n_cells == 54
        assert b.gi1 == 12
        assert b.gj1 == 18

    def test_rejects_nonpositive_size(self):
        with pytest.raises(GridError):
            make(nx=0)
        with pytest.raises(GridError):
            make(ny=-3)

    def test_rejects_negative_origin(self):
        with pytest.raises(GridError):
            make(gi0=-1)

    def test_rejects_bad_level(self):
        with pytest.raises(GridError):
            make(level=0)

    def test_extent_physical(self):
        b = make(gi0=3, gj0=6, nx=9, ny=6)
        assert (b.gi0, b.gj0, b.gi1, b.gj1) == (3, 6, 12, 12)


class TestContainsAndOverlap:
    def test_contains_cell(self):
        b = make(gi0=3, gj0=3, nx=3, ny=3)
        assert b.contains_cell(3, 3)
        assert b.contains_cell(5, 5)
        assert not b.contains_cell(6, 3)
        assert not b.contains_cell(3, 2)

    def test_overlap_detection(self):
        a = make(0, gi0=0, gj0=0, nx=6, ny=6)
        b = make(1, gi0=3, gj0=3, nx=6, ny=6)
        c = make(2, gi0=6, gj0=0, nx=3, ny=3)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_overlap_requires_same_level(self):
        a = make(0, level=1)
        b = make(1, level=2)
        with pytest.raises(GridError):
            a.overlaps(b)


class TestTouches:
    def test_edge_neighbors(self):
        a = make(0, gi0=0, gj0=0, nx=6, ny=6)
        right = make(1, gi0=6, gj0=0, nx=3, ny=6)
        above = make(2, gi0=0, gj0=6, nx=6, ny=3)
        assert a.touches(right) and right.touches(a)
        assert a.touches(above)

    def test_corner_contact_is_not_touching(self):
        a = make(0, gi0=0, gj0=0, nx=3, ny=3)
        diag = make(1, gi0=3, gj0=3, nx=3, ny=3)
        assert not a.touches(diag)

    def test_gap_is_not_touching(self):
        a = make(0, gi0=0, gj0=0, nx=3, ny=3)
        far = make(1, gi0=9, gj0=0, nx=3, ny=3)
        assert not a.touches(far)

    def test_partial_edge_overlap_touches(self):
        a = make(0, gi0=0, gj0=0, nx=3, ny=9)
        b = make(1, gi0=3, gj0=6, nx=3, ny=9)
        assert a.touches(b)

    def test_different_levels_never_touch(self):
        a = make(0, level=1, gi0=0, gj0=0, nx=3, ny=3)
        b = make(1, level=2, gi0=3, gj0=0, nx=3, ny=3)
        assert not a.touches(b)


class TestParentFootprint:
    def test_aligned_footprint(self):
        b = make(gi0=9, gj0=6, nx=9, ny=12)
        assert b.parent_footprint(3) == (3, 2, 6, 6)

    def test_misaligned_raises(self):
        with pytest.raises(GridError):
            make(gi0=1).parent_footprint(3)
        with pytest.raises(GridError):
            make(nx=10).parent_footprint(3)
