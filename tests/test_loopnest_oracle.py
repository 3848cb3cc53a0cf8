"""Three executors of Eqs. 1-3 and of the forecast products, bit for bit: the
scalar oracle (``tests/loopnest_oracle.py``), the NumPy bodies and the compiled
nest.

``tests/reference_kernels.py`` is the same vectorised algorithm as the NumPy
bodies, frozen: it pins them against change, not against a mistake both
share.  The oracle is a second derivation.  Hypothesis draws small blocks
(1 x 1 to 12 x 12) of the ``random_state`` family — a beach, an island, thin
films around the dry threshold — plus cells whose depth *is* the threshold
and NaN in every lane the stencil never reads, in both precisions, linear
and nonlinear.  For ``OutputAccumulator.update`` they add films around and
exactly at ``SPEED_MIN_DEPTH``, levels exactly ``arrival_threshold`` off their
reference, cells already arrived, ``-inf`` maxima on dry land, a level of one
zero under a maximum of the other (``np.maximum`` keeps the newer), repeated
updates — and NaN *in* lanes it reads, which ``maximum``/``minimum`` must keep.
``nlmnt2`` itself — on the nest both sweeps of a strip from one pair of entry
points, one scratch, one power — is held to the oracle the same way, in one
strip and cut into many (as is ``nlmass``), every ghost row and column of its
results included: the nest carries those over itself.
And the suite is itself checked: mutants of the C nest and of the NumPy
body, per kernel (momentum: a flipped upwind sign, a dropped overflow rule,
``>`` for ``>=`` at the dry threshold; products: the speed gate dropped,
``>=`` for ``>`` at the arrival threshold, ``vmax`` folded with ``min``,
``mc * nc`` for ``nc * nc`` in the speed, inundation folded off land instead
of on it; and of the C alone, the older of two zeros kept; of its fused
sweeps, the M and N scratch offsets swapped, the last strip's extra N face
row dropped, the ghost frame not carried over) must fail it.
"""

import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DRY_THRESHOLD
from repro.core import loopnest, mass, momentum, outputs
from repro.grid.block import Block
from repro.fault import GaussianSource
from repro.grid.staggered import NGHOST
from repro.validation.analytic import SlopedBathymetry, single_block_model

from tests import executors
from tests import loopnest_oracle as oracle
from tests.test_kernels_bitwise import DT, DX, MANNING, random_state
from tests.test_kernels_flat import never_read_by_momentum_core, with_cap

G = NGHOST

shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))
dtypes = st.sampled_from([np.float64, np.float32])
caps = st.sampled_from([None, 40])  # the shipped strip cap, or two rows a strip


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


def mass_agrees(ny, nx, seed, dtype, cap=None):
    z, m, n, hz = shore(ny, nx, seed, dtype)
    for a in (m, n, hz):  # NLMASS reads the physical cells and their faces
        keep = a[G:-G, G:-G].copy()
        a[...] = np.nan
        a[G:-G, G:-G] = keep
    want = oracle.nlmass(z, m, n, hz, DT, DX)
    for _name, executor in on_each_executor():
        with executor, with_cap(cap):
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


def nlmnt2_agrees(ny, nx, seed, dtype, nonlinear, cap=None, nests=None):
    """Both sweeps at once, as the step calls them — on the nest from the fused
    entry points — with NaN in the twelve cells neither sweep has a path from."""
    z, m, n, hz = shore(ny, nx, seed, dtype)
    cells, _ = never_read_by_momentum_core(z, n)
    cells &= never_read_by_momentum_core(z.T, m.T)[0].T
    assert cells.sum() == 12
    z[cells] = hz[cells] = np.nan
    want = oracle.nlmnt2(z, m, n, hz, DT, DX, MANNING, nonlinear=nonlinear)
    for _name, executor in on_each_executor(nests):
        with executor, with_cap(cap):
            got = momentum.nlmnt2(
                z, m, n, hz, DT, DX, MANNING, np.full_like(m, 7.0), np.full_like(n, 7.0),
                nonlinear=nonlinear,
            )
        if not all(same(a, b) for a, b in zip(got, want)):
            return False
    return True


@given(shape=shapes, seed=st.integers(0, 2**16), dtype=dtypes, cap=caps)
@settings(max_examples=150, deadline=None)
def test_nlmass_three_ways(shape, seed, dtype, cap):
    assert mass_agrees(*shape, seed, dtype, cap)


@given(shape=shapes, seed=st.integers(0, 2**16), dtype=dtypes, nonlinear=st.booleans())
@settings(max_examples=150, deadline=None)
def test_momentum_three_ways(shape, seed, dtype, nonlinear):
    assert momentum_agrees(*shape, seed, dtype, nonlinear)


@given(shape=shapes, seed=st.integers(0, 2**16), dtype=dtypes, nonlinear=st.booleans(),
       cap=caps)
@settings(max_examples=150, deadline=None)
def test_nlmnt2_three_ways(shape, seed, dtype, nonlinear, cap):
    assert nlmnt2_agrees(*shape, seed, dtype, nonlinear, cap)


def test_nlmnt2_is_the_x_update_on_transposes():
    z, m, n, hz = shore(7, 9, 3, np.float64)
    want = oracle.nlmnt2(z, m, n, hz, DT, DX, MANNING)
    for _name, executor in on_each_executor():
        with executor:
            got = momentum.nlmnt2(z, m, n, hz, DT, DX, MANNING, np.empty_like(m), np.empty_like(n))
        assert all(same(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# The forecast products
# ---------------------------------------------------------------------------

THIN = outputs.OutputAccumulator.SPEED_MIN_DEPTH
ARRIVAL = 0.01


def flooded_shore(ny, nx, seed, dtype, poison):
    """``shore`` as OUTPUT meets it, plus: a tenth of the cells each with a
    film around ``SPEED_MIN_DEPTH``, with exactly that depth, and with deep
    water exactly ``ARRIVAL`` above or below the datum (the reference level of
    ``updates_agree``'s first state is what it is, of the later ones 0 there),
    and with deep water level with the datum, at ``0.0`` or ``-0.0``; NaN in
    every lane OUTPUT never reads and, with *poison*, in some it does."""
    rng = np.random.default_rng(seed + 2)
    z, m, n, hz = shore(ny, nx, seed, dtype)
    lot = rng.random(z.shape)
    film = lot < 0.1
    z[film] = (-hz + THIN * 10.0 ** rng.uniform(-0.3, 0.3, z.shape))[film]
    hz[(0.1 <= lot) & (lot < 0.2)], z[(0.1 <= lot) & (lot < 0.2)] = 0.0, THIN
    edge = (0.2 <= lot) & (lot < 0.3)
    hz[edge], z[edge] = 5.0, (ARRIVAL * rng.choice([-1.0, 1.0], z.shape))[edge]
    flat = (0.3 <= lot) & (lot < 0.4)
    hz[flat], z[flat] = 5.0, rng.choice([-0.0, 0.0], z.shape)[flat]
    for a, rows, cols in ((z, 0, 0), (hz, 0, 0), (m, 0, 1), (n, 1, 0)):
        keep = a[G : a.shape[0] - G, G : a.shape[1] - G].copy()
        if poison:
            keep[rng.random(keep.shape) < 0.05] = np.nan
        a[...] = np.nan
        a[G : a.shape[0] - G, G : a.shape[1] - G] = keep
        assert keep.shape == (ny + rows, nx + cols)
    return z, m, n, hz


def updates_agree(ny, nx, seed, dtype, poison=False, loose=False, accumulator=None, nests=None):
    """Three updates of one accumulator — as ``RTiModel`` builds it, or with
    *loose* a float64 reference level whatever the state's precision, which
    the nest declines — some of its cells arrived (and not a number) before the
    first; of *accumulator* instead of ``OutputAccumulator``, on *nests*."""
    states = [flooded_shore(ny, nx, seed + 7 * k, dtype, poison) for k in range(3)]
    z0, _, _, h0 = states[0]
    rng = np.random.default_rng(seed + 3)
    early = np.where(rng.random((ny, nx)) < 0.2, 0.5, np.inf)
    if poison:
        early[rng.random((ny, nx)) < 0.05] = np.nan
    reference = np.where(np.abs(z0) == ARRIVAL, 0.0, np.nan_to_num(z0))[G:-G, G:-G]
    if loose:
        reference = reference.astype(float)

    def fresh():
        acc = (accumulator or outputs.OutputAccumulator)(
            Block(0, 1, 0, 0, nx, ny), np.nan_to_num(h0[G:-G, G:-G]), reference, ARRIVAL
        )
        acc.arrival_time[...] = early
        acc.zmax[acc.zmax == 0.0] *= -1.0  # the first level there is the other zero
        return acc

    want = fresh().product_arrays()
    assert np.isneginf(want["zmax"]).sum() == (np.nan_to_num(h0[G:-G, G:-G]) <= 0).sum()
    for k, (z, m, n, hz) in enumerate(states):
        want = oracle.output(want, z, m, n, hz, 1.5 * (k + 1), ARRIVAL)
    for _name, executor in on_each_executor(nests):
        acc = fresh()
        with executor:
            for k, (z, m, n, hz) in enumerate(states):
                acc.update(z, m, n, hz, 1.5 * (k + 1))
        if not all(same(a, want[key]) for key, a in acc.product_arrays().items()):
            return False
    return True


@given(shape=shapes, seed=st.integers(0, 2**16), dtype=dtypes, poison=st.booleans(),
       loose=st.booleans())
@settings(max_examples=150, deadline=None)
def test_output_three_ways(shape, seed, dtype, poison, loose):
    assert updates_agree(*shape, seed, dtype, poison, loose)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_model_of_either_precision_runs_its_products_on_the_nest(dtype):
    """What ``RTiModel`` builds is what the nest takes: in a float32 model the
    maximum level and its reference are float32, the other products double."""
    calls = []

    def counted(name, fn):
        return lambda *args: (calls.append(name), fn(*args))[1]

    def forecast(executor):
        model = single_block_model(
            30, 24, 50.0, SlopedBathymetry(20.0, 20.0 / 900.0), boundary="wall", dtype=dtype
        )
        model.set_initial_condition(GaussianSource(x0=750.0, y0=800.0, amplitude=2.0, sigma=150.0))
        with executor:
            model.run(20)
        (acc,) = model.outputs.values()
        return acc.product_arrays()

    got = forecast(executors.on_nests(executors.wrapped(executors.compiled_nests(), counted)))
    assert calls.count("output") == 20
    assert [a.dtype for a in got.values()] == [dtype, float, float, float, dtype, bool]
    assert (got["inundation_max"] > 0).any() and np.isfinite(got["arrival_time"]).any()
    want = forecast(executors.on_numpy())
    assert all(same(got[key], want[key]) for key in want)


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


def products_battery_passes(**mutant):
    return all(updates_agree(*case[:4], poison=case[4], **mutant) for case in BATTERY)


def fused_battery_passes(**mutant):
    return all(nlmnt2_agrees(*case, cap=cap, **mutant) for case in BATTERY for cap in (None, 40))


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
C_FUSED_MUTANTS = {  # of the two entry points' own lines, not of the row loops
    "M and N scratch offsets swapped": (
        "FN(face_rows)(z, h, n, m, scratch + LM, LM + LN,", "FN(face_rows)(z, h, n, m, scratch, LM + LN,"
    ),
    "the last strip's extra N row dropped": (
        "FN(update_rows)(z, n, out_n, scratch + LM, LM + LN, P, 1, r0, r1 + last, g,",
        "FN(update_rows)(z, n, out_n, scratch + LM, LM + LN, P, 1, r0, r1, g,",
    ),
    "the ghost frame not carried over": (
        "        FN(carry)(n, out_n, P, R + 1, r0, r1 + last, g, P - g, r0 == g, last);\n", ""
    ),
}
C_OUTPUT_MUTANTS = {
    "speed gate dropped": ("if (d > gate) {", "{"),
    "a product of the two means in the speed": ("nc * nc", "mc * nc"),
    "inundation folded off land": ("if (land[k] && wet)", "if (!land[k] && wet)"),
    ">= at the arrival threshold": ("if (off > thr &&", "if (off >= thr &&"),
    "vmax folded with min": ("vmax[k] = fold(vmax[k], speed);",
                             "vmax[k] = vmax[k] <= speed ? vmax[k] : speed;"),
    "the older of two zeros kept": ("return a > b ||", "return a >= b ||"),
}
NUMPY_OUTPUT_MUTANTS = {
    "speed gate dropped": ("np.divide(speed, d, out=tmp, where=mask)",
                           "np.divide(speed, d, out=tmp)"),
    "a product of the two means in the speed": ("np.multiply(tmp, tmp, out=tmp)",
                                                "np.multiply(speed, tmp, out=tmp)"),
    "inundation folded off land": ("np.bitwise_and(self._land[rows], wet, out=mask)",
                                   "np.greater(wet, self._land[rows], out=mask)"),
    ">= at the arrival threshold": ("np.greater(tmp, self.arrival_threshold, out=mask)",
                                    "np.greater_equal(tmp, self.arrival_threshold, out=mask)"),
    "vmax folded with min": ("np.maximum(self.vmax[rows], tmp, out=self.vmax[rows])",
                             "np.minimum(self.vmax[rows], tmp, out=self.vmax[rows])"),
}


def mutated(source: str, old: str, new: str) -> str:
    assert source.count(old) == 1, old
    return source.replace(old, new)


def test_the_battery_passes_unmutated():
    assert battery_passes() and products_battery_passes() and fused_battery_passes()


@pytest.mark.parametrize("mutant", sorted({**C_MUTANTS, **C_FUSED_MUTANTS, **C_OUTPUT_MUTANTS}))
def test_a_mutant_of_the_c_nest_fails(tmp_path, monkeypatch, mutant):
    executors.compiled_nests()
    source = tmp_path / "loopnest.c"
    change = {**C_MUTANTS, **C_FUSED_MUTANTS, **C_OUTPUT_MUTANTS}[mutant]
    source.write_text(mutated(loopnest.SOURCE.read_text(), *change))
    monkeypatch.setattr(loopnest, "SOURCE", source)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    nests = loopnest._build()  # built and loaded, the self-check not asked
    hit, spared = (battery_passes, fused_battery_passes), (products_battery_passes,)
    if mutant in C_OUTPUT_MUTANTS:
        hit, spared = spared, hit
    elif mutant in C_FUSED_MUTANTS:  # (a sweep by itself may or may not notice)
        hit = hit[1:]
    assert not any(passes(nests=nests) for passes in hit)
    assert all(passes(nests=nests) for passes in spared)


@pytest.mark.parametrize("mutant", sorted(NUMPY_MUTANTS))
def test_a_mutant_of_the_numpy_body_fails(mutant):
    source = mutated(Path(momentum.__file__).read_text(), *NUMPY_MUTANTS[mutant])
    module = types.ModuleType("mutant_momentum")
    exec(compile(source, momentum.__file__, "exec"), module.__dict__)
    with executors.on_numpy():  # its NumPy body, whatever the platform chose
        assert not battery_passes(core=module.momentum_core)


@pytest.mark.parametrize("mutant", sorted(NUMPY_OUTPUT_MUTANTS))
def test_a_mutant_of_the_numpy_products_body_fails(mutant):
    source = mutated(Path(outputs.__file__).read_text(), *NUMPY_OUTPUT_MUTANTS[mutant])
    module = types.ModuleType("mutant_outputs")
    exec(compile(source, outputs.__file__, "exec"), module.__dict__)
    assert not products_battery_passes(accumulator=module.OutputAccumulator, nests={})
