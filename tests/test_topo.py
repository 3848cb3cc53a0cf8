"""Tests for repro.topo: bathymetry generators, block synthesis, Kochi."""

import numpy as np
import pytest

from repro.errors import GridError
from repro.grid.hierarchy import NestedGrid
from repro.topo import (
    KOCHI_TABLE1,
    ShelfBathymetry,
    build_kochi_grid,
    build_mini_kochi,
    factor_near_aspect,
    kochi_table,
    split_cells_into_blocks,
)
from repro.topo.blockgen import wrap_into_rows


class TestShelfBathymetry:
    def setup_method(self):
        self.b = ShelfBathymetry()

    def test_deep_far_offshore(self):
        d = self.b.depth(0.0, 1.0e6)
        assert d == pytest.approx(self.b.ocean_depth, rel=1e-3)

    def test_dry_on_land(self):
        assert self.b.depth(0.0, 0.0) < 0.0

    def test_zero_at_coastline(self):
        x = 123_456.0
        y = float(self.b.coastline(x))
        assert abs(float(self.b.depth(x, y))) < 1e-9

    def test_monotone_offshore(self):
        ys = np.linspace(self.b.coast_y + 30_000, 900_000, 50)
        d = self.b.depth(np.zeros_like(ys), ys)
        assert np.all(np.diff(d) >= 0)

    def test_sample_cells_shape_and_consistency(self):
        arr = self.b.sample_cells(0.0, 0.0, 8, 5, 1000.0)
        assert arr.shape == (5, 8)
        # Cell (j, i) center must equal a point query.
        assert arr[2, 3] == pytest.approx(
            float(self.b.depth(3500.0, 2500.0))
        )

    def test_multi_resolution_consistency(self):
        # Parent and child sample the same analytic surface: a child cell
        # center inside a parent cell must have a nearby depth value.
        coarse = self.b.sample_cells(0.0, 200_000.0, 4, 4, 900.0)
        fine = self.b.sample_cells(0.0, 200_000.0, 12, 12, 300.0)
        agg = fine.reshape(4, 3, 4, 3).mean(axis=(1, 3))
        assert np.allclose(agg, coarse, rtol=1e-3, atol=2.0)


class TestBlockGen:
    def test_factor_near_aspect_exact(self):
        nx, ny = factor_near_aspect(12, 6)
        assert nx * ny == 9 * 12
        assert nx % 3 == 0 and ny % 3 == 0

    def test_factor_rejects_bad_aspect(self):
        # 9*prime only factors 1 x p: aspect too extreme.
        assert factor_near_aspect(9973, 300, max_aspect=4.0) is None

    @pytest.mark.parametrize("profile", ["uniform", "heavy"])
    def test_split_exact_total(self, profile):
        total = 9 * 123_456
        dims = split_cells_into_blocks(
            total, 12, ny_target=99, seed=3, profile=profile
        )
        assert len(dims) == 12
        assert sum(nx * ny for nx, ny in dims) == total
        assert all(nx % 3 == 0 and ny % 3 == 0 for nx, ny in dims)

    def test_split_deterministic(self):
        a = split_cells_into_blocks(9 * 10_000, 5, 30, seed=1)
        b = split_cells_into_blocks(9 * 10_000, 5, 30, seed=1)
        assert a == b

    def test_split_rejects_bad_total(self):
        with pytest.raises(GridError):
            split_cells_into_blocks(100, 2, 3)

    def test_split_single_block(self):
        dims = split_cells_into_blocks(9 * 400, 1, 60)
        assert len(dims) == 1
        assert dims[0][0] * dims[0][1] == 3600

    def test_heavy_profile_has_spread(self):
        dims = split_cells_into_blocks(
            9 * 4_000_000, 40, ny_target=300, seed=0, profile="heavy"
        )
        sizes = sorted(nx * ny for nx, ny in dims)
        assert sizes[-1] / sizes[0] > 3.0

    def test_wrap_into_rows(self):
        dims = [(30, 9), (30, 9), (30, 9), (60, 9)]
        rows = wrap_into_rows(dims, max_row_width=70)
        assert rows == [[0, 1], [2], [3]]

    def test_wrap_rejects_oversized_block(self):
        with pytest.raises(GridError):
            wrap_into_rows([(100, 9)], max_row_width=50)


class TestKochiGrid:
    @pytest.fixture(scope="class")
    def grid(self):
        return build_kochi_grid()

    def test_matches_table1_exactly(self, grid):
        for idx, (dx, n_blocks, n_cells) in KOCHI_TABLE1.items():
            level = grid.level(idx)
            assert level.dx == dx
            assert level.n_blocks == n_blocks
            assert level.n_cells == n_cells
        assert grid.n_blocks == 84
        assert grid.n_cells == 47_211_444

    def test_is_a_valid_nested_grid(self, grid):
        assert isinstance(grid, NestedGrid)
        assert grid.ratio == 3

    def test_deterministic(self):
        a = build_kochi_grid(seed=5)
        b = build_kochi_grid(seed=5)
        assert [blk.n_cells for blk in a.all_blocks()] == [
            blk.n_cells for blk in b.all_blocks()
        ]

    def test_kochi_table_report(self, grid):
        rows = kochi_table(grid)
        assert rows[-1]["cells_built"] == rows[-1]["cells_paper"]
        assert all(r["blocks_built"] == r["blocks_paper"] for r in rows)

    def test_level5_blocks_heavy_tailed(self, grid):
        sizes = [b.n_cells for b in grid.level(5).blocks]
        assert max(sizes) / min(sizes) > 5.0


class TestMiniKochi:
    def test_structure(self):
        mk = build_mini_kochi()
        assert mk.grid.n_levels == 5
        assert mk.grid.ratio == 3
        assert mk.grid.n_cells < 100_000

    def test_cfl_safe_everywhere(self):
        from repro.grid.cfl import check_cfl_depth_field

        mk = build_mini_kochi()
        for lvl in mk.grid.levels:
            for blk in lvl.blocks:
                depth = mk.bathymetry.sample_cells(
                    blk.gi0 * lvl.dx, blk.gj0 * lvl.dx, blk.nx, blk.ny, lvl.dx
                )
                check_cfl_depth_field(lvl.dx, mk.dt, depth)

    def test_fine_levels_reach_the_coast(self):
        mk = build_mini_kochi()
        lvl5 = mk.grid.level(5)
        wet = dry = 0
        for blk in lvl5.blocks:
            depth = mk.bathymetry.sample_cells(
                blk.gi0 * 10.0, blk.gj0 * 10.0, blk.nx, blk.ny, 10.0
            )
            wet += int((depth > 0).sum())
            dry += int((depth <= 0).sum())
        # The finest level must straddle the shoreline (that is its job).
        assert wet > 0 and dry > 0
