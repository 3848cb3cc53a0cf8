"""Three executors of Eqs. 1-3, bit for bit: the scalar oracle
(``tests/loopnest_oracle.py``), the NumPy bodies and the compiled nest.

``tests/reference_kernels.py`` is the same vectorised algorithm as the NumPy
bodies, frozen: it pins them against change, not against a mistake both
share.  The oracle is a second derivation.  Hypothesis draws small blocks
(1 x 1 to 12 x 12) of the ``random_state`` family — a beach, an island, thin
films around the dry threshold — plus cells whose depth *is* the threshold
and NaN in every lane the stencil never reads, in both precisions, linear
and nonlinear.  And the suite is itself checked: three mutants each of the C
nest and of the NumPy body (a flipped upwind sign, a dropped overflow rule,
``>`` for ``>=`` at the dry threshold) must fail it.
"""

import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DRY_THRESHOLD
from repro.core import loopnest, mass, momentum
from repro.grid.staggered import NGHOST

from tests import executors
from tests import loopnest_oracle as oracle
from tests.test_kernels_bitwise import DT, DX, MANNING, random_state
from tests.test_kernels_flat import never_read_by_momentum_core

G = NGHOST

shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))
dtypes = st.sampled_from([np.float64, np.float32])


def shore(ny, nx, seed, dtype):
    """``random_state`` with, on a tenth of the cells, ground at the datum
    under exactly ``DRY_THRESHOLD`` of water: ``z + h == dry`` in either
    precision, where ``>`` and ``>=`` part ways."""
    z, m, n, hz = random_state(ny, nx, seed, dtype)
    exact = np.random.default_rng(seed + 1).random(z.shape) < 0.1
    hz[exact], z[exact] = 0.0, DRY_THRESHOLD
    return z, m, n, hz


def on_each_executor(nests=None):
    """(name, context) of the executors to hold against the oracle: this
    platform's — or *nests* alone, for a nest it did not choose."""
    if nests is not None:
        yield "given", executors.on_nests(nests)
        return
    yield "numpy", executors.on_numpy()
    if loopnest.choice().executor == "nest":
        yield "nest", executors.on_nests(loopnest.choice().nests)


def same(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def mass_agrees(ny, nx, seed, dtype):
    z, m, n, hz = shore(ny, nx, seed, dtype)
    for a in (m, n, hz):  # NLMASS reads the physical cells and their faces
        keep = a[G:-G, G:-G].copy()
        a[...] = np.nan
        a[G:-G, G:-G] = keep
    want = oracle.nlmass(z, m, n, hz, DT, DX)
    for _name, executor in on_each_executor():
        with executor:
            if not same(mass.nlmass(z, m, n, hz, DT, DX, np.full_like(z, 7.0)), want):
                return False
    return True


def momentum_agrees(ny, nx, seed, dtype, nonlinear, core=None, nests=None):
    """Both passes, each as ``nlmnt2`` calls it, with NaN where it never looks;
    of *core* instead of ``momentum_core``, on *nests* instead of the platform's."""
    z, m, n, hz = shore(ny, nx, seed, dtype)
    for zz, mm, nn, hh in ((z, m, n, hz), (z.T, n.T, m.T, hz.T)):
        cells, faces = never_read_by_momentum_core(zz, nn)
        pz, ph, pn = (a.copy(order="K") for a in (zz, hh, nn))  # in their layout
        pz[cells] = ph[cells] = pn[faces] = np.nan
        want = oracle.x_momentum(pz, ph, mm, pn, DT, DX, MANNING, nonlinear=nonlinear)
        for _name, executor in on_each_executor(nests):
            with executor:
                got = (core or momentum.momentum_core)(
                    pz, mm, pn, ph, DT, DX, MANNING, np.full_like(mm, 7.0), nonlinear=nonlinear
                )
            if not same(got, want):
                return False
    return True


@given(shape=shapes, seed=st.integers(0, 2**16), dtype=dtypes)
@settings(max_examples=150, deadline=None)
def test_nlmass_three_ways(shape, seed, dtype):
    assert mass_agrees(*shape, seed, dtype)


@given(shape=shapes, seed=st.integers(0, 2**16), dtype=dtypes, nonlinear=st.booleans())
@settings(max_examples=150, deadline=None)
def test_momentum_three_ways(shape, seed, dtype, nonlinear):
    assert momentum_agrees(*shape, seed, dtype, nonlinear)


def test_nlmnt2_is_the_x_update_on_transposes():
    z, m, n, hz = shore(7, 9, 3, np.float64)
    want = oracle.nlmnt2(z, m, n, hz, DT, DX, MANNING)
    for _name, executor in on_each_executor():
        with executor:
            got = momentum.nlmnt2(z, m, n, hz, DT, DX, MANNING, np.empty_like(m), np.empty_like(n))
        assert all(same(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# The suite checked: mutants of both executors must fail it
# ---------------------------------------------------------------------------

BATTERY = [
    (ny, nx, seed, dtype, nonlinear)
    for (ny, nx), seed in (((6, 7), 0), ((12, 12), 1), ((3, 11), 2))
    for dtype in (np.float64, np.float32)
    for nonlinear in (True, False)
]


def battery_passes(**mutant):
    return all(momentum_agrees(*case, **mutant) for case in BATTERY)


C_MUTANTS = {
    "flipped upwind sign": ("(m >= 0 ? f_up : f_down)", "(m >= 0 ? f_down : f_up)"),
    "dropped overflow rule": ("const REAL one_wet = dl > dry ? over_r : 0;",
                              "const REAL one_wet = 0;"),
    ">= at the dry threshold": ("dr > dry ? (dl > dry ? mean : over_l) : one_wet",
                                "dr >= dry ? (dl >= dry ? mean : over_l) : one_wet"),
}
NUMPY_MUTANTS = {
    "flipped upwind sign": ("np.greater_equal(m_c, 0.0, out=mask)",
                            "np.less(m_c, 0.0, out=mask)"),
    "dropped overflow rule": ("        np.copyto(df, t1, where=over_r)\n", ""),
    ">= at the dry threshold": ("np.greater(d, dry_threshold, out=wet)",
                                "np.greater_equal(d, dry_threshold, out=wet)"),
}


def mutated(source: str, old: str, new: str) -> str:
    assert source.count(old) == 1, old
    return source.replace(old, new)


def test_the_battery_passes_unmutated():
    assert battery_passes()


@pytest.mark.parametrize("mutant", sorted(C_MUTANTS))
def test_a_mutant_of_the_c_nest_fails(tmp_path, monkeypatch, mutant):
    executors.compiled_nests()
    source = tmp_path / "loopnest.c"
    source.write_text(mutated(loopnest.SOURCE.read_text(), *C_MUTANTS[mutant]))
    monkeypatch.setattr(loopnest, "SOURCE", source)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    nests = loopnest._build()  # built and loaded, the self-check not asked
    assert not battery_passes(nests=nests)


@pytest.mark.parametrize("mutant", sorted(NUMPY_MUTANTS))
def test_a_mutant_of_the_numpy_body_fails(mutant):
    source = mutated(Path(momentum.__file__).read_text(), *NUMPY_MUTANTS[mutant])
    module = types.ModuleType("mutant_momentum")
    exec(compile(source, momentum.__file__, "exec"), module.__dict__)
    with executors.on_numpy():  # its NumPy body, whatever the platform chose
        assert not battery_passes(core=module.momentum_core)
