"""The shipped kernels against the frozen reference, bit for bit.

``tests/reference_kernels.py`` holds the kernels as they were before they
ran in row strips out of the scratch arena.  The rewrite is a pure change
of execution order, so every output must be ``np.array_equal`` — not
close — over states with everything the wet/dry rules branch on: a dry
beach, an island, and films within a decade either side of the dry
threshold.
"""

import copy

import numpy as np
import pytest

from repro.constants import DRY_THRESHOLD
from repro.core import scratch
from repro.core.mass import nlmass
from repro.core.momentum import momentum_core, nlmnt2
from repro.errors import ConfigurationError
from repro.fault import GaussianSource
from repro.grid.staggered import NGHOST, eta_shape, flux_m_shape, flux_n_shape
from repro.validation.analytic import SlopedBathymetry, single_block_model

from tests import reference_kernels as ref

G = NGHOST
DT, DX, MANNING = 0.1, 10.0, 0.025


def random_state(ny, nx, seed, dtype=np.float64):
    """(z, m, n, hz) with a beach, an island, thin films and ghost data."""
    rng = np.random.default_rng(seed)
    shape = eta_shape(ny, nx)
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    # Depth falls along +x and goes dry over the last fifth: the beach.
    hz = 40.0 - 50.0 * xx / shape[1] + rng.normal(0.0, 0.3, shape)
    island = (yy - shape[0] / 3) ** 2 + (xx - shape[1] / 3) ** 2
    hz[island < (min(shape) / 6) ** 2] = -1.5
    z = rng.normal(0.0, 0.3, shape)
    z = np.where(z + hz < DRY_THRESHOLD, -hz, z)  # dry cells sit on the ground
    film = rng.random(shape) < 0.15
    z = np.where(film, -hz + DRY_THRESHOLD * 10.0 ** rng.uniform(-1, 1, shape), z)
    m = rng.normal(0.0, 0.5, flux_m_shape(ny, nx))
    n = rng.normal(0.0, 0.5, flux_n_shape(ny, nx))
    m[rng.random(m.shape) < 0.1] = 0.0
    return tuple(a.astype(dtype) for a in (z, m, n, hz))


def assert_kernels_match(ny, nx, seed, dtype=np.float64, nonlinear=True):
    z, m, n, hz = random_state(ny, nx, seed, dtype)
    got_z, want_z = np.full_like(z, 7.0), np.full_like(z, -7.0)
    nlmass(z, m, n, hz, DT, DX, out=got_z)
    ref.nlmass(z, m, n, hz, DT, DX, out=want_z)
    assert got_z.dtype == dtype and np.array_equal(got_z, want_z)

    got = np.full_like(m, 7.0), np.full_like(n, 7.0)
    want = np.full_like(m, -7.0), np.full_like(n, -7.0)
    nlmnt2(got_z, m, n, hz, DT, DX, MANNING, *got, nonlinear=nonlinear)
    ref.nlmnt2(want_z, m, n, hz, DT, DX, MANNING, *want, nonlinear=nonlinear)
    for a, b in zip(got, want):
        assert np.isfinite(b).all() and np.array_equal(a, b)
    # Beyond toy sizes the state has both open and closed faces, or the
    # comparison proves little.
    inner = want[0][G:-G, G:-G]
    assert inner.size < 48 or ((inner == 0.0).any() and (inner != 0.0).any())


SHAPES = [(6, 8), (37, 19), (19, 37), (1, 9), (9, 1), (1, 1), (64, 64)]


@pytest.mark.parametrize("ny,nx", SHAPES)
@pytest.mark.parametrize("nonlinear", [True, False])
def test_one_strip_blocks(ny, nx, nonlinear):
    assert len(scratch.strips(G, G + ny, nx + 2 * G)) == 1
    assert_kernels_match(ny, nx, seed=ny * 100 + nx, nonlinear=nonlinear)


@pytest.mark.parametrize("ny,nx", SHAPES + [(50, 23)])
@pytest.mark.parametrize("cap", [40, 300])
def test_many_uneven_strips(monkeypatch, ny, nx, cap):
    """A tiny strip cap: many strips, the last one shorter, one-row strips."""
    monkeypatch.setattr(scratch, "STRIP_ELEMENTS", cap)
    assert_kernels_match(ny, nx, seed=cap + ny)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("nonlinear", [True, False])
def test_three_strips_in_both_passes(dtype, nonlinear):
    """The shipped strip cap on a block it cuts into >= 3 uneven strips."""
    ny, nx = 263, 205
    m_pass = scratch.strips(G, G + ny, nx + 2 * G)
    n_pass = scratch.strips(G, G + ny + 1, nx + 2)  # transposed: by N face
    assert len(m_pass) >= 3 and len(n_pass) >= 3
    assert ny % (m_pass[0][1] - m_pass[0][0]) != 0  # last strip shorter
    assert_kernels_match(ny, nx, seed=3, dtype=dtype, nonlinear=nonlinear)


def test_float32_small_blocks():
    for ny, nx in SHAPES:
        assert_kernels_match(ny, nx, seed=11, dtype=np.float32)


def test_strips_are_balanced_and_cover():
    # A 128^2 block is one strip, ghosts and all.
    assert scratch.strips(2, 130, 132) == [(2, 130, slice(None, None))]
    for rows, width in [(768, 772), (128, 4000), (5, 10**6), (1, 1)]:
        got = scratch.strips(G, G + rows, width)
        assert got[0][0] == G and got[-1][1] == G + rows
        assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
        sizes = [hi - lo for lo, hi, _ in got]
        assert max(sizes) * width <= max(scratch.STRIP_ELEMENTS, width)
        assert max(sizes) - min(sizes) < len(got)  # no 124 + 4 split
        # The whole-row slices tile an array with ghost rows either side.
        padded = list(range(rows + 2 * G))
        assert sum((padded[whole] for _, _, whole in got), []) == padded
    assert 25 <= scratch.strips(G, G + 768, 772)[0][1] - G <= 40


@pytest.mark.parametrize("cap", [scratch.STRIP_ELEMENTS, 500])
def test_accumulator_over_a_runup(monkeypatch, cap):
    """30 steps of a wave running up a beach: every product moves."""
    monkeypatch.setattr(scratch, "STRIP_ELEMENTS", cap)
    nx, ny, dx = 40, 60, 10.0
    model = single_block_model(
        nx, ny, dx, SlopedBathymetry(4.0, 4.0 / (0.8 * ny * dx)), boundary="wall"
    )
    model.set_initial_condition(
        GaussianSource(x0=nx * dx / 2, y0=0.7 * ny * dx, amplitude=1.5, sigma=60.0)
    )
    (st,) = model.states.values()
    (acc,) = model.outputs.values()
    want = copy.deepcopy(acc)
    initial = {k: a.copy() for k, a in acc.product_arrays().items()}
    for _ in range(30):
        model.step()
        # step() folded z_new/m_new/n_new in, then swapped the buffers.
        ref.output_update(
            want, st.z_old, st.m_old, st.n_old, st.hz, model.time,
            dry_threshold=model.config.dry_threshold,
        )
        for key, a in acc.product_arrays().items():
            assert np.array_equal(a, want.product_arrays()[key]), key
    assert (acc.inundation_max > 0.0).sum() > 50
    assert (acc.vmax > 0.0).any()
    assert np.isfinite(acc.arrival_time).any() and np.isinf(acc.arrival_time).any()
    assert (acc.zmax > initial["zmax"]).any()
    assert np.isfinite(acc.zmax).sum() > np.isfinite(initial["zmax"]).sum()


class TestAliasedOutputsRejected:
    """Strips read rows an earlier strip wrote: aliasing is an error now."""

    def test_nlmass(self):
        z, m, n, hz = random_state(6, 8, 0)
        with pytest.raises(ConfigurationError, match="nlmass.*shares memory"):
            nlmass(z, m, n, hz, DT, DX, out=z)
        with pytest.raises(ConfigurationError):
            nlmass(z, m, n, hz, DT, DX, out=hz[:, ::-1])

    def test_nlmnt2(self):
        z, m, n, hz = random_state(6, 8, 0)
        out_m, out_n = np.empty_like(m), np.empty_like(n)
        with pytest.raises(ConfigurationError, match="shares memory"):
            nlmnt2(z, m, n, hz, DT, DX, MANNING, out_m=m, out_n=out_n)
        with pytest.raises(ConfigurationError, match="shares memory"):
            nlmnt2(z, m, n, hz, DT, DX, MANNING, out_m=out_m, out_n=n)
        with pytest.raises(ConfigurationError):
            momentum_core(z, m, n, hz, DT, DX, MANNING, out=m[:, :])
        nlmnt2(z, m, n, hz, DT, DX, MANNING, out_m=out_m, out_n=out_n)
