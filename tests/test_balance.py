"""Tests for the load-balance machinery (repro.balance)."""

import numpy as np
import pytest

from repro.balance import (
    LinearPerfModel,
    fit_linear_model,
    measure_kernel_runtimes,
    optimize_separators,
    score_max,
    score_variance,
)
from repro.balance.apply import fit_platform_model, optimized_decomposition
from repro.balance.hillclimb import _rank_times
from repro.balance.perfmodel import (
    PAPER_INTERCEPT_US,
    PAPER_R2,
    PAPER_SLOPE_US_PER_CELL,
)
from repro.errors import ConfigurationError, DecompositionError
from repro.hw import PLATFORMS
from repro.topo import build_kochi_grid


class TestLinearPerfModel:
    def test_eq5_rank_time_is_sum(self):
        m = LinearPerfModel(1e-4, 46.2)
        # T = sum_i (slope * b_i + intercept), Eq. 5.
        assert m.rank_time_us([100_000, 200_000]) == pytest.approx(
            1e-4 * 300_000 + 2 * 46.2
        )

    def test_invalid_slope(self):
        with pytest.raises(ConfigurationError):
            LinearPerfModel(-1.0, 0.0)


class TestMicrobenchmarkFit:
    def test_fit_recovers_exact_line(self):
        xs = [10_000.0, 50_000.0, 90_000.0]
        ys = [2e-4 * x + 30.0 for x in xs]
        m = fit_linear_model(xs, ys)
        assert m.slope_us_per_cell == pytest.approx(2e-4)
        assert m.intercept_us == pytest.approx(30.0)
        assert m.r2 == pytest.approx(1.0)

    def test_fit_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            fit_linear_model([1.0], [1.0])

    def test_a100_microbench_matches_paper_shape(self):
        """Fig. 5: linear fit with a ~46 us intercept and high R^2.

        The cache-resident measurement reproduces the paper's published
        coefficients (slope 1.09e-4 us/cell, intercept 46.2 us).
        """
        p = PLATFORMS["a100-sxm4"]
        cells = [50_000, 200_000, 500_000, 1_000_000, 1_500_000, 2_000_000]
        times = measure_kernel_runtimes(p, cells, traffic_multiplier=1.0)
        m = fit_linear_model(cells, times)
        assert m.r2 > PAPER_R2
        assert m.intercept_us == pytest.approx(PAPER_INTERCEPT_US, rel=0.2)
        assert m.slope_us_per_cell == pytest.approx(
            PAPER_SLOPE_US_PER_CELL, rel=0.25
        )

    def test_production_model_consistent_units(self):
        p = PLATFORMS["a100-sxm4"]
        m = fit_platform_model(p)
        # Production traffic is `traffic_multiplier` times the
        # cache-resident minimum; same intercept.
        assert m.slope_us_per_cell > PAPER_SLOPE_US_PER_CELL
        assert m.intercept_us == pytest.approx(PAPER_INTERCEPT_US, rel=0.15)


class TestHillClimb:
    def cells(self):
        rng = np.random.default_rng(0)
        return list(rng.integers(50_000, 1_500_000, size=40))

    def test_improves_over_random_init(self):
        cells = self.cells()
        model = LinearPerfModel(7e-4, 40.0)
        seps = optimize_separators(cells, 8, model, iterations=2000, seed=1)
        t = _rank_times(cells, seps, model)
        # Any valid split has max >= total/n; optimized must be within 2x.
        lower = model.rank_time_us(cells) / 8
        assert score_max(t) < 2.0 * lower

    def test_beats_naive_equal_cells_with_overheads(self):
        # When the per-kernel intercept matters, the optimizer trades
        # cells for block count (the paper's point).
        cells = [50_000] * 20 + [1_000_000]
        model = LinearPerfModel(1e-4, 100.0)
        seps = optimize_separators(cells, 3, model, iterations=3000, seed=0)
        t = _rank_times(cells, seps, model)
        # Equal-cells would put the 1M block alone (max=200) and the 20
        # small ones on two ranks (max=1100); optimizer must do better
        # than the worst naive choice.
        assert score_max(t) <= 1100.0

    def test_deterministic_in_seed(self):
        cells = self.cells()
        model = LinearPerfModel(7e-4, 40.0)
        a = optimize_separators(cells, 5, model, seed=3)
        b = optimize_separators(cells, 5, model, seed=3)
        assert a == b

    def test_single_rank_no_separators(self):
        assert optimize_separators([1, 2, 3], 1, LinearPerfModel(1.0, 0.0)) == []

    def test_too_many_ranks(self):
        with pytest.raises(DecompositionError):
            optimize_separators([1, 2], 3, LinearPerfModel(1.0, 0.0))

    def test_two_phase_not_worse_than_max_only(self):
        cells = self.cells()
        model = LinearPerfModel(7e-4, 40.0)
        two = optimize_separators(
            cells, 8, model, iterations=2000, seed=0, two_phase=True
        )
        max_only = optimize_separators(
            cells, 8, model, iterations=2000, seed=0, two_phase=False
        )
        assert score_max(_rank_times(cells, two, model)) <= 1.15 * score_max(
            _rank_times(cells, max_only, model)
        )

    def test_scores(self):
        t = np.array([1.0, 3.0])
        assert score_variance(t) == pytest.approx(1.0)
        assert score_max(t) == 3.0


def model_max(decomp, model):
    """The model's time of the slowest rank of *decomp*."""
    return max(
        model.rank_time_us([it.n_cells for it in rw.items])
        for rw in decomp.ranks
    )


class TestOptimizedDecomposition:
    def test_valid_and_complete(self):
        grid = build_kochi_grid()
        p = PLATFORMS["a100-sxm4"]
        d = optimized_decomposition(grid, 16, p, iterations=500)
        assert d.n_ranks == 16
        assert sum(d.cells_per_rank()) == grid.n_cells

    def test_reduces_model_makespan_vs_block_granular_baseline(self):
        from repro.par.decomposition import equal_cell_assignment

        grid = build_kochi_grid()
        p = PLATFORMS["a100-sxm4"]
        model = fit_platform_model(p)
        base = equal_cell_assignment(grid, 16, split_blocks=False)
        opt = optimized_decomposition(grid, 16, p, model=model)

        assert model_max(opt, model) <= model_max(base, model)

    @pytest.mark.parametrize("grid_name", ["kochi", "mini-kochi"])
    @pytest.mark.parametrize("ranks", range(2, 9))
    def test_never_worse_than_the_whole_block_baseline(self, ranks, grid_name):
        """Fewer ranks than levels, or a level with more ranks than
        blocks, takes the row-split fallback, and a search can end above
        the baseline too: neither is handed back when the baseline is
        better."""
        from repro.par.decomposition import equal_cell_assignment
        from repro.persist.scenario import build_grid

        grid = build_grid(grid_name)
        p = PLATFORMS["a100-sxm4"]
        model = fit_platform_model(p)
        base = equal_cell_assignment(grid, ranks, split_blocks=False)
        opt = optimized_decomposition(grid, ranks, p, model=model,
                                      iterations=500)

        assert opt.n_ranks == ranks
        assert sum(opt.cells_per_rank()) == grid.n_cells
        assert model_max(opt, model) <= model_max(base, model)
