"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balance import LinearPerfModel, optimize_separators
from repro.balance.hillclimb import _rank_times
from repro.core.mass import nlmass
from repro.core.momentum import nlmnt2
from repro.grid.block import Block
from repro.grid.cfl import cfl_time_step, check_cfl
from repro.grid.staggered import eta_shape, flux_m_shape, flux_n_shape, interior
from repro.par.decomposition import equal_cell_assignment
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.xchg.offsets import (
    build_offset_table,
    pack_irregular_naive,
    pack_irregular_offsets,
)
from repro.xchg.packing import (
    pack_boundary_naive,
    pack_boundary_offsets,
    unpack_boundary_offsets,
)

# ---------------------------------------------------------------------------
# Packing equivalence (Listings 3 vs 4, 5 vs 6)
# ---------------------------------------------------------------------------

region_strategy = st.tuples(
    st.integers(0, 5), st.integers(1, 6), st.integers(0, 5), st.integers(1, 6)
)


@given(
    seed=st.integers(0, 2**32 - 1),
    r=region_strategy,
    n_arrays=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_pack_naive_equals_offsets(seed, r, n_arrays):
    j0, jn, i0, in_ = r
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0, 1, (12, 12)) for _ in range(n_arrays)]
    region = (slice(j0, j0 + jn), slice(i0, i0 + in_))
    assert np.array_equal(
        pack_boundary_naive(arrays, region),
        pack_boundary_offsets(arrays, region),
    )


@given(seed=st.integers(0, 2**32 - 1), r=region_strategy)
@settings(max_examples=30, deadline=None)
def test_pack_unpack_roundtrip(seed, r):
    j0, jn, i0, in_ = r
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0, 1, (12, 12)) for _ in range(2)]
    region = (slice(j0, j0 + jn), slice(i0, i0 + in_))
    buf = pack_boundary_offsets(arrays, region)
    targets = [np.zeros((12, 12)) for _ in range(2)]
    unpack_boundary_offsets(buf, targets, region)
    for a, t in zip(arrays, targets):
        assert np.array_equal(a[region], t[region])


@given(
    seed=st.integers(0, 2**32 - 1),
    n_regions=st.integers(1, 5),
)
@settings(max_examples=30, deadline=None)
def test_irregular_pack_equivalence(seed, n_regions):
    rng = np.random.default_rng(seed)
    field = rng.normal(0, 1, (30, 30))
    regions = []
    for _ in range(n_regions):
        j0 = 3 * int(rng.integers(0, 5))
        i0 = 3 * int(rng.integers(0, 5))
        jn = 3 * int(rng.integers(1, 4))
        in_ = 3 * int(rng.integers(1, 4))
        regions.append((j0, min(j0 + jn, 30), i0, min(i0 + in_, 30)))
    a = pack_irregular_naive(field, regions)
    b = pack_irregular_offsets(field, regions)
    assert np.allclose(a, b, rtol=1e-13)


@given(counts=st.lists(st.integers(1, 9), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_offset_table_prefix_sums(counts):
    regions = [(0, 3, 0, 3 * c) for c in counts]
    t = build_offset_table(regions)
    assert t.total == sum(counts)
    acc = 0
    for c, off in zip(counts, t.offsets):
        assert off == acc
        acc += c


# ---------------------------------------------------------------------------
# Numerical kernels
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_nlmass_conserves_in_closed_box(seed):
    ny, nx = 8, 8
    rng = np.random.default_rng(seed)
    z = np.zeros(eta_shape(ny, nx))
    m = np.zeros(flux_m_shape(ny, nx))
    n = np.zeros(flux_n_shape(ny, nx))
    h = np.full(eta_shape(ny, nx), 100.0)
    from repro.grid.staggered import NGHOST as G

    m[G : G + ny, G + 1 : G + nx] = rng.normal(0, 1, (ny, nx - 1))
    n[G + 1 : G + ny, G : G + nx] = rng.normal(0, 1, (ny - 1, nx))
    out = np.empty_like(z)
    nlmass(z, m, n, h, 0.01, 10.0, out=out)
    assert abs(out[interior(ny, nx)].sum()) < 1e-10


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_momentum_xy_symmetry(seed):
    ny = nx = 8
    rng = np.random.default_rng(seed)
    z = rng.normal(0, 0.05, eta_shape(ny, nx))
    m = rng.normal(0, 0.2, flux_m_shape(ny, nx))
    n = rng.normal(0, 0.2, flux_n_shape(ny, nx))
    h = np.full(eta_shape(ny, nx), 50.0)
    out_m = np.empty_like(m)
    out_n = np.empty_like(n)
    nlmnt2(z, m, n, h, 0.1, 10.0, 0.025, out_m=out_m, out_n=out_n)
    out_m2 = np.empty_like(n.T).copy()
    out_n2 = np.empty_like(m.T).copy()
    nlmnt2(
        z.T.copy(), n.T.copy(), m.T.copy(), h.T.copy(), 0.1, 10.0, 0.025,
        out_m=out_m2, out_n=out_n2,
    )
    assert np.allclose(out_n.T, out_m2, atol=1e-12)
    assert np.allclose(out_m.T, out_n2, atol=1e-12)


@given(
    dx=st.floats(1.0, 1000.0),
    h=st.floats(0.1, 8000.0),
    safety=st.floats(0.1, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_cfl_time_step_is_stable(dx, h, safety):
    dt = cfl_time_step(dx, h, safety=safety)
    check_cfl(dx, dt, h)  # must never raise


# ---------------------------------------------------------------------------
# Decomposition and load balancing
# ---------------------------------------------------------------------------


@given(
    widths=st.lists(st.integers(1, 20), min_size=2, max_size=12),
    n_ranks=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_equal_cell_assignment_covers_everything(widths, n_ranks):
    blocks = []
    x = 0
    for k, w in enumerate(widths):
        blocks.append(Block(k, 1, 3 * x, 0, 3 * w, 9))
        x += w
    grid = NestedGrid([GridLevel(index=1, dx=10.0, blocks=blocks)])
    n = min(n_ranks, sum(3 * w * 9 for w in widths))
    d = equal_cell_assignment(grid, min(n, grid.n_cells // 1), split_blocks=True)
    # Decomposition.__post_init__ already validates exact coverage; assert
    # the cell totals agree as well.
    assert sum(d.cells_per_rank()) == grid.n_cells


@given(
    seed=st.integers(0, 1000),
    n_blocks=st.integers(4, 30),
    n_ranks=st.integers(2, 4),
)
@settings(max_examples=25, deadline=None)
def test_separators_always_valid(seed, n_blocks, n_ranks):
    rng = np.random.default_rng(seed)
    cells = list(rng.integers(1000, 100_000, size=n_blocks))
    model = LinearPerfModel(1e-4, 40.0)
    seps = optimize_separators(
        cells, n_ranks, model, iterations=200, seed=seed, restarts=2
    )
    assert len(seps) == n_ranks - 1
    assert seps == sorted(seps)
    assert all(0 < s < n_blocks for s in seps)
    assert len(set(seps)) == len(seps)
    # Every rank non-empty, and times well-defined.
    t = _rank_times(cells, seps, model)
    assert len(t) == n_ranks
    assert np.all(t > 0)


@given(seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_restriction_mean_bounds(seed):
    """The 3x3 average can never exceed the child's extremes."""
    from repro.grid.staggered import NGHOST as G
    from repro.nesting.restrict import restrict_eta

    rng = np.random.default_rng(seed)
    parent = Block(0, 1, 0, 0, 6, 6)
    child = Block(1, 2, 0, 0, 18, 18)
    pz = np.zeros(eta_shape(6, 6))
    cz = np.zeros(eta_shape(18, 18))
    cz[G : G + 18, G : G + 18] = rng.normal(0, 1, (18, 18))
    restrict_eta(pz, cz, parent, child, mode="full")
    inner = cz[G : G + 18, G : G + 18]
    written = pz[G : G + 6, G : G + 6]
    assert written.max() <= inner.max() + 1e-12
    assert written.min() >= inner.min() - 1e-12
