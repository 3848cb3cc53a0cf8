"""The flat-frame kernels on hostile shapes, layouts and neighbours.

``tests/test_kernels_bitwise.py`` pins the shipped kernels to the frozen
reference on a fixed list of shapes.  The flat frame (DESIGN.md §9b) adds
its own ways to go wrong — a row wrap read as a neighbour, a ghost lane
written out, a pitch taken from the wrong array — so here Hypothesis draws
the shape (1x1 to non-square), the strip cap, the dtype and the scheme, and
the *whole padded arrays* must equal the reference, ghost carry-over
included; in the transposed frame called directly, through non-contiguous
inputs, with NaN in every element the 2-D stencil never read, and with
floating-point errors raised instead of flagged.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RTiModel, SimulationConfig, scratch
from repro.core.mass import nlmass
from repro.core.momentum import momentum_core, nlmnt2
from repro.fault import GaussianSource
from repro.grid.staggered import NGHOST
from repro.topo import build_mini_kochi
from repro.validation.analytic import SlopedBathymetry, single_block_model

from tests import reference_kernels as ref
from tests.test_kernels_bitwise import DT, DX, MANNING, random_state

G = NGHOST

shapes = st.tuples(st.integers(1, 26), st.integers(1, 26))
dtypes = st.sampled_from([np.float64, np.float32])
caps = st.sampled_from([None, 40, 300])  # the shipped strip cap, or tiny ones


@contextlib.contextmanager
def with_cap(cap):
    """``scratch.STRIP_ELEMENTS`` set to *cap* (Hypothesis reruns the body, so
    the function-scoped ``monkeypatch`` fixture would not do)."""
    with pytest.MonkeyPatch.context() as patch:
        if cap:
            patch.setattr(scratch, "STRIP_ELEMENTS", cap)
        yield


def strided_copy(a):
    """*a*'s values in memory that is neither C- nor F-contiguous."""
    big = np.full((2 * a.shape[0] + 1, 3 * a.shape[1] + 2), np.nan, a.dtype)
    view = big[1::2, 2::3]
    view[...] = a
    assert not view.flags.c_contiguous and not view.T.flags.c_contiguous
    return view


LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray, "strided": strided_copy}


@given(shape=shapes, seed=st.integers(0, 2**16), dtype=dtypes, cap=caps,
       nonlinear=st.booleans(), layout=st.sampled_from(sorted(LAYOUTS)))
@settings(max_examples=120, deadline=None)
def test_whole_padded_arrays_equal_the_reference(shape, seed, dtype, cap, nonlinear, layout):
    ny, nx = shape
    z, m, n, hz = random_state(ny, nx, seed, dtype)
    want_z = ref.nlmass(z, m, n, hz, DT, DX, out=np.full_like(z, -7.0))
    want = ref.nlmnt2(want_z, m, n, hz, DT, DX, MANNING, np.full_like(m, -7.0),
                      np.full_like(n, -7.0), nonlinear=nonlinear)
    lay = LAYOUTS[layout]
    zz, mm, nn, hh = (lay(a) for a in (z, m, n, hz))
    with with_cap(cap):
        got_z = nlmass(zz, mm, nn, hh, DT, DX, out=lay(np.full_like(z, 7.0)))
        got = nlmnt2(lay(want_z), mm, nn, hh, DT, DX, MANNING, lay(np.full_like(m, 7.0)),
                     lay(np.full_like(n, 7.0)), nonlinear=nonlinear)
    assert got_z.dtype == dtype and np.array_equal(got_z, want_z)
    for a, b in zip(got, want):
        assert a.dtype == dtype and np.array_equal(a, b)


def never_read_by_momentum_core(z, nn):
    """Masks of the cells of ``z``/``hz`` and the faces of ``nn_old`` the 2-D
    stencil of one ``momentum_core`` call has no path from to any output
    (``mm_old`` has none: it is carried over whole).  Rows ``G-1 .. G+ny``
    feed the cross flux; the outermost rows do not, nor do the end columns
    of the rows that only the cross flux reads."""
    cells = np.zeros(z.shape, bool)
    cells[[0, -1], :] = True
    cells[[G - 1, -G], 0] = cells[[G - 1, -G], -1] = True
    faces = np.zeros(nn.shape, bool)
    faces[[0, -1], :] = faces[:, [0, -1]] = True
    return cells, faces


@given(shape=shapes, seed=st.integers(0, 2**16), dtype=dtypes, cap=caps,
       transposed=st.booleans())
@settings(max_examples=80, deadline=None)
def test_momentum_core_in_either_frame_ignores_what_the_stencil_never_read(
    shape, seed, dtype, cap, transposed
):
    ny, nx = shape
    z, m, n, hz = random_state(ny, nx, seed, dtype)
    # The frame momentum_core is called in: as nlmnt2 calls it for M, for N.
    frame = (z.T, n.T, m.T, hz.T) if transposed else (z, m, n, hz)
    zz, mm, nn, hh = frame
    want = ref.momentum_core(zz, mm, nn, hh, DT, DX, MANNING, np.full_like(mm, -7.0))
    with with_cap(cap):
        got = momentum_core(zz, mm, nn, hh, DT, DX, MANNING, np.full_like(mm, 7.0))
    assert np.array_equal(got, want)

    cells, faces = never_read_by_momentum_core(zz, nn)
    pz, ph, pn = (a.copy() for a in (zz, hh, nn))
    pz[cells] = ph[cells] = pn[faces] = np.nan
    with np.errstate(invalid="ignore"):
        # The mask is right: the reference does not see the poison either.
        assert np.array_equal(
            ref.momentum_core(pz, mm, pn, ph, DT, DX, MANNING, np.empty_like(mm)), want
        )
        with with_cap(cap):
            got = momentum_core(pz, mm, pn, ph, DT, DX, MANNING, np.full_like(mm, 7.0))
    assert np.array_equal(got, want)


@given(shape=shapes, seed=st.integers(0, 2**16), dtype=dtypes, cap=caps)
@settings(max_examples=60, deadline=None)
def test_nlmass_ignores_what_the_stencil_never_read(shape, seed, dtype, cap):
    ny, nx = shape
    z, m, n, hz = random_state(ny, nx, seed, dtype)
    want = ref.nlmass(z, m, n, hz, DT, DX, out=np.empty_like(z))
    # Read: hz at the cells; M and N at the faces around them.  (z_old is
    # carried over whole.)
    ph, pm, pn = (np.full_like(a, np.nan) for a in (hz, m, n))
    ph[G:-G, G:-G] = hz[G:-G, G:-G]
    pm[G:-G, G:-G] = m[G:-G, G:-G]
    pn[G:-G, G:-G] = n[G:-G, G:-G]
    with np.errstate(invalid="ignore"), with_cap(cap):
        got = nlmass(z, pm, pn, ph, DT, DX, out=np.full_like(z, 7.0))
    assert np.array_equal(got, want)


def test_no_wrap_or_ghost_lane_raises_a_floating_point_error():
    """The lanes that are not written out still compute: on real
    neighbouring data, so they overflow and divide by zero no more than
    the cells do.  Steps on mini-Kochi and on the ``basin_large`` beach."""
    mk = build_mini_kochi()
    kochi = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
    kochi.set_initial_condition(
        GaussianSource(x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0)
    )
    n, dx = 128, 50.0
    beach = single_block_model(
        n, n, dx, SlopedBathymetry(200.0, 200.0 / (0.9 * n * dx)), boundary="wall"
    )
    beach.set_initial_condition(
        GaussianSource(x0=n * dx / 2, y0=n * dx / 3, amplitude=2.0, sigma=n * dx / 12)
    )
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        kochi.run(40)
        beach.run(25)
    assert kochi.step_count == 40 and beach.step_count == 25
