"""The exchange phases on the compiled nest (``loopnest.exchange``, DESIGN.md
section 9i) against their NumPy bodies, byte for byte.

``restrict`` — JNZ into the parent (``restrict_eta``) and into a buffer
(``pack_restriction``), one routine — is held to ``pack_irregular_offsets`` +
``unpack_restriction`` on drawn links of 1..40 parent cells a side, in both
restriction modes (``boundary`` strips one parent cell wide included), and on
``full`` regions past the 8192 elements of NumPy's reduction buffer, in both
precisions, with tiles of -0.0, NaN and +-inf and drawn land masks.  ``moves``
— ghost fills, whose source has a stride of 0, halo seams and JNQ's repeat of
a parent face onto three child faces — is held to the NumPy bodies on drawn
arrays and nestings.  And the suite is itself checked: a mutant of the C that
sums a one-cell-wide region in the wide order, drops the +0.0 start, ignores
the land mask or walks a table backwards (N filled before S, E before W) must
fail it.  Filling S/N before W/E is an equivalent mutant, and shown to be.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import loopnest
from repro.core.boundary import SIDES, fill_ghosts_zero_gradient
from repro.grid.block import Block
from repro.grid.staggered import NGHOST
from repro.nesting.interp import child_boundary_segments, interpolate_fluxes
from repro.nesting.restrict import (
    pack_restriction,
    restrict_eta,
    restriction_region,
    unpack_restriction,
)
from repro.xchg.halo import exchange_halo
from repro.xchg.offsets import pack_irregular_offsets

from tests import executors
from tests.test_nesting_bitwise import make_states, nestings

G = NGHOST
dtypes = st.sampled_from([np.float64, np.float32])


def launches(routine: str) -> int:
    return loopnest.provenance()["routines"][routine]["launches"]


def same(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# restrict
# ---------------------------------------------------------------------------


def link(nj, ni, j0=1, i0=2, more_j=1, more_i=0):
    """A parent and a child whose footprint is nj x ni of its cells."""
    parent = Block(0, 1, 0, 0, i0 + ni + more_i, j0 + nj + more_j)
    return parent, Block(1, 2, 3 * i0, 3 * j0, 3 * ni, 3 * nj)


#: What else a child's level holds in 3 % of its cells: NaN (and +inf), or
#: +-inf — whose sum is NaN too, of the other sign.  Not both: where NaNs of
#: two signs meet in one sum, which survives is the operand order each
#: compiler picked for that loop, NumPy's as the nest's (DESIGN.md §9i).
SPECIALS = {None: [], "nan": [np.nan, np.inf], "inf": [np.inf, -np.inf]}


def child_level(child, dtype, seed, specials=None):
    """A child's water level spread over twelve decades — so summation order
    shows — with a fifth of its tiles all -0.0 and *specials*."""
    rng = np.random.default_rng(seed)
    shape = (child.ny + 2 * G, child.nx + 2 * G)
    z = (rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-6, 7, shape)).astype(dtype)
    zero = np.kron(rng.random((child.ny // 3, child.nx // 3)) < 0.2, np.ones((3, 3), bool))
    z[G:-G, G:-G][zero] = -0.0
    if specials:
        odd = rng.random(shape) < 0.03
        z[odd] = rng.choice(SPECIALS[specials], int(odd.sum()))
    return z


def parent_arrays(parent, dtype, seed, masked):
    """A parent's level and, if *masked*, a depth with land, sea and cells
    exactly at the datum (land: not written)."""
    rng = np.random.default_rng(seed + 1)
    shape = (parent.ny + 2 * G, parent.nx + 2 * G)
    z = rng.normal(0.0, 1.0, shape).astype(dtype)
    if not masked:
        return z, None
    h = rng.uniform(-1.0, 1.0, shape).astype(dtype)
    h[rng.random(shape) < 0.1] = 0.0
    return z, h


def restricted_by_numpy(parent_z, child_z, parent, child, mode, width, parent_h):
    """``pack_irregular_offsets`` over the child's regions, as rectangles of
    its padded array, then ``unpack_restriction``: the buffer and the count."""
    regions = restriction_region(parent, child, mode, width)
    at_j, at_i = G - child.gj0, G - child.gi0
    rects = [(at_j + 3 * j0, at_j + 3 * j1, at_i + 3 * i0, at_i + 3 * i1)
             for i0, j0, i1, j1 in regions]
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, as it should be
        buf = pack_irregular_offsets(child_z, rects)
    return buf, unpack_restriction(parent_z, parent, regions, buf, parent_h=parent_h)


def restrictions_agree(parent, child, dtype, seed, mode, width, masked, specials) -> bool:
    """The nest of the moment against the NumPy bodies; raises if a call the
    nest should take went to NumPy."""
    child_z = child_level(child, dtype, seed, specials)
    want_z, h = parent_arrays(parent, dtype, seed, masked)
    got_z = want_z.copy()
    want_buf, want_n = restricted_by_numpy(want_z, child_z, parent, child, mode, width, h)
    before = launches("restrict")
    got_buf = pack_restriction(child_z, child, restriction_region(parent, child, mode, width))
    got_n = restrict_eta(got_z, child_z, parent, child, mode=mode, width=width, parent_h=h)
    assert launches("restrict") - before == 2, "not on the nest"
    return got_n == want_n and same(got_buf, want_buf) and same(got_z, want_z)


@given(
    nj=st.integers(1, 40), ni=st.integers(1, 40), j0=st.integers(0, 3), i0=st.integers(0, 3),
    dtype=dtypes, seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["full", "boundary"]), width=st.integers(1, 3),
    masked=st.booleans(), specials=st.sampled_from(list(SPECIALS)),
)
@settings(max_examples=120, deadline=None)
def test_restrict_is_the_numpy_pack_and_unpack(nj, ni, j0, i0, dtype, seed, mode, width,
                                               masked, specials):
    with executors.on_nests(executors.compiled_nests()):
        parent, child = link(nj, ni, j0, i0)
        assert restrictions_agree(parent, child, dtype, seed, mode, width, masked, specials)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("nj,ni", [(31, 31), (1, 911), (911, 1), (2, 456)])
def test_a_full_region_past_numpys_reduction_buffer(nj, ni, dtype):
    """More than 8192 child cells: NumPy reduces through its buffer in
    pieces; the sums are still the ones the nest makes."""
    assert 9 * nj * ni > 8192
    with executors.on_nests(executors.compiled_nests()):
        parent, child = link(nj, ni)
        for specials in SPECIALS:
            assert restrictions_agree(parent, child, dtype, 7, "full", 2, True, specials)


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------


@given(
    rows=st.integers(1, 14), cols=st.integers(1, 14), g=st.integers(1, 3), dtype=dtypes,
    sides=st.sets(st.sampled_from(SIDES)), seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_a_ghost_fill_is_the_numpy_body(rows, cols, g, dtype, sides, seed):
    """Stride-0 sources, W/E before S/N; a frame without a cell to copy on
    a side is declined there, and the NumPy body raises what it raises."""
    nests = executors.compiled_nests()
    sides = tuple(s for s in SIDES if s in sides)
    arr = np.random.default_rng(seed).normal(0.0, 1.0, (rows, cols)).astype(dtype)

    def fill(executor):
        out = arr.copy()
        with executor:
            try:
                fill_ghosts_zero_gradient(out, sides, g)
            except ValueError as exc:
                return type(exc)
        return out

    want = fill(executors.on_numpy())
    before = launches("moves")
    got = fill(executors.on_nests(nests))
    if isinstance(want, type):
        assert got is want
        return
    assert same(got, want)
    assert launches("moves") - before == 1


def fills_agree(dtype) -> bool:
    """Frames too small for their two ghost layers a side, whose fills overlap
    — S's with N's, W's with E's: there the order of a table is seen."""
    rng = np.random.default_rng(11)
    for shape in ((3, 3), (3, 8), (8, 3), (4, 4)):
        arr = rng.normal(0.0, 1.0, shape).astype(dtype)
        want, got = arr.copy(), arr.copy()
        with executors.on_numpy():
            fill_ghosts_zero_gradient(want, SIDES)
        fill_ghosts_zero_gradient(got, SIDES)
        if not same(got, want):
            return False
    return True


@pytest.mark.parametrize("shape", [(3, 3), (7, 9), (4, 12)])
def test_filling_s_n_before_w_e_gives_the_same_bytes(shape):
    """Why no mutant fills S/N before W/E: a fill of rows acts on an array
    from the left, a fill of columns from the right, and (L A) R = L (A R) —
    copies, so bit for bit.  The NumPy body, in either order."""
    from repro.core import boundary

    arr = np.random.default_rng(5).normal(0.0, 1.0, shape)
    one, other = arr.copy(), arr.copy()
    with executors.on_numpy():
        boundary.fill_ghosts_zero_gradient(one, SIDES)
        for sides in (("S", "N"), ("W", "E")):
            boundary.fill_ghosts_zero_gradient(other, sides)
    assert same(one, other)


def exchange_step(grid, states):
    """PTP_Z, JNQ and PTP_MN of one step, in pipeline order, on every block,
    seam and link: the moves (a ghost fill of each field of each block, a
    copy of each field over each seam, each link's faces)."""

    def fill(field):
        for st in states.values():
            fill_ghosts_zero_gradient(getattr(st, field), SIDES)

    seams = [pair for lvl in grid.levels for pair in lvl.neighbor_pairs()]
    fill("z_new")
    for a, b in seams:
        exchange_halo(states[a.block_id], states[b.block_id], "z")
    log = []
    for lvl in grid.levels[1:]:
        for child in lvl.blocks:
            segs = child_boundary_segments(lvl.blocks, child)
            for parent in grid.parent_blocks_of(child):
                p, c = states[parent.block_id], states[child.block_id]
                log.append(interpolate_fluxes(p.m_new, p.n_new, c.m_new, c.n_new,
                                              parent, child, segs))
    fill("m_new")
    fill("n_new")
    for a, b in seams:
        exchange_halo(states[a.block_id], states[b.block_id], "m")
        exchange_halo(states[a.block_id], states[b.block_id], "n")
    return log


def moves_agree(grid, seed, dtype) -> bool:
    want, got = make_states(grid, seed, dtype), make_states(grid, seed, dtype)
    with executors.on_numpy():
        want_log = exchange_step(grid, want)
    before = launches("moves")
    got_log = exchange_step(grid, got)
    n_seams = sum(len(lvl.neighbor_pairs()) for lvl in grid.levels)
    assert launches("moves") - before == 3 * len(got) + 3 * n_seams + len(got_log)
    return got_log == want_log and all(
        same(a, b)
        for bid, st in got.items()
        for a, b in zip(st.state_arrays().values(), want[bid].state_arrays().values())
    )


@given(grid=nestings(), seed=st.integers(0, 2**32 - 1), dtype=dtypes)
@settings(max_examples=60, deadline=None)
def test_seams_fills_and_jnq_are_the_numpy_bodies(grid, seed, dtype):
    with executors.on_nests(executors.compiled_nests()):
        assert moves_agree(grid, seed, dtype)


# ---------------------------------------------------------------------------
# A table that runs past its arrays is refused at prepare: it never reaches C
# ---------------------------------------------------------------------------


def prepares(routine, arrays, spec, result=None) -> bool:
    """Whether ``loopnest.exchange`` lays out *spec* on *arrays*; a refused
    call is neither prepared nor launched — the NumPy body runs instead."""
    counts = loopnest.provenance()["routines"][routine]
    before = counts["prepared"], counts["launches"]
    call = loopnest.exchange(routine, arrays, lambda: (spec, result))
    counts = loopnest.provenance()["routines"][routine]
    made = call is not None
    assert (counts["prepared"], counts["launches"]) == (before[0] + made, before[1] + made)
    return made


@pytest.mark.parametrize("to,fro,ok", [
    ((3, 6), (0, 3), True),
    ((5, 8), (0, 3), False),  # the target rectangle past its array
    ((0, 3), (4, 7), False),  # the source rectangle past its array
])
def test_a_move_past_its_array_is_refused_at_prepare(to, fro, ok):
    with executors.on_nests(executors.compiled_nests()):
        a, b = np.zeros((6, 6)), np.ones((6, 6))
        move = loopnest.copy(0, (slice(*to), slice(0, 2)), 1, (slice(*fro), slice(0, 2)))
        assert move is not None
        assert prepares("moves", (a, b), [move]) is ok


@pytest.mark.parametrize("region,ok", [
    (((0, 0), 2, 2, (1, 1)), True),
    (((9, 0), 2, 2, (1, 1)), False),  # 3 x 3 tiles past the child
    (((0, 9), 2, 2, (1, 1)), False),
    (((0, 0), 2, 2, (5, 5)), False),  # parent cells past the parent
])
def test_a_restriction_past_its_arrays_is_refused_at_prepare(region, ok):
    with executors.on_nests(executors.compiled_nests()):
        child, parent = np.zeros((12, 12)), np.zeros((6, 6))
        assert prepares("restrict", (child, parent), [region], 4) is ok


@pytest.mark.parametrize("offset,ok", [(0, True), (1, False), (-1, False)])
def test_a_jnz_buffer_offset_past_its_total_is_refused_at_prepare(offset, ok):
    with executors.on_nests(executors.compiled_nests()):
        child = np.zeros((12, 12))
        assert prepares("restrict", (child,), [((0, 0), 2, 2, offset)], 4) is ok


# ---------------------------------------------------------------------------
# The self-check: a NumPy that sums otherwise keeps the whole process on NumPy
# ---------------------------------------------------------------------------

#: Run before the fresh interpreter chooses: JNZ's NumPy pack as a NumPy
#: summing row sums without the +0.0 start — and a one-cell-wide region's
#: tiles in rows — would sum them.
OTHER_ORDER = """
import numpy as np
from repro.nesting import restrict
from repro.xchg.offsets import build_offset_table
def other_order(field, regions, table=None, ratio=3):
    table = table or build_offset_table(regions, ratio)
    buf = np.empty(table.total, dtype=field.dtype)
    for cells, tiles, at in table.rows:
        sums = field[cells].reshape(tiles).sum(axis=3).sum(axis=1)
        np.true_divide(sums, np.intp(ratio * ratio), out=buf[at].reshape(sums.shape))
    return buf
restrict.pack_irregular_offsets = other_order
"""


def test_a_numpy_that_sums_in_another_order_leaves_the_process_on_numpy(tmp_path):
    """The self-check's tiny two-level step holds a one-cell-wide region, a
    wide one and tiles of -0.0: a NumPy that sums them otherwise fails it,
    and the process runs NumPy — kernels too — with one logged reason."""
    from tests.test_loopnest_build import fell_back, forecast_digest, forecast_in_a_fresh_process

    executors.compiled_nests()
    with executors.on_numpy():
        expected = forecast_digest()
    result, said = forecast_in_a_fresh_process(tmp_path, before=OTHER_ORDER)
    fell_back(result, said, expected, "does not reproduce")


# ---------------------------------------------------------------------------
# The suite checked: mutants of the C must fail it
# ---------------------------------------------------------------------------

def battery_grid():
    """Two level-1 blocks across a seam, a child over both and a second
    child beside it: seams on two levels, single- and multi-parent links."""
    from repro.grid.hierarchy import NestedGrid
    from repro.grid.level import GridLevel

    return NestedGrid([
        GridLevel(index=1, dx=900.0, blocks=[Block(0, 1, 0, 0, 4, 5), Block(1, 1, 4, 0, 3, 5)]),
        GridLevel(index=2, dx=300.0, blocks=[Block(2, 2, 6, 3, 9, 6), Block(3, 2, 15, 3, 3, 6)]),
    ])


def battery_passes(nests) -> bool:
    """A one-cell-wide and a wide link in both modes, masked and not, both
    precisions; a step's moves on :func:`battery_grid`; overlapping fills."""
    with executors.on_nests(nests):
        for dtype in (np.float64, np.float32):
            for (nj, ni), mode, masked in (
                ((40, 1), "full", True), ((7, 9), "full", True), ((7, 9), "boundary", False),
                ((1, 30), "full", False),
            ):
                parent, child = link(nj, ni)
                if not restrictions_agree(parent, child, dtype, nj, mode, 1, masked, None):
                    return False
            if not (moves_agree(battery_grid(), 3, dtype) and fills_agree(dtype)):
                return False
    return True


C_MUTANTS = {
    "a one-cell-wide region summed in the wide order": (
        "FN(tile)(row + 3 * i, cp, ni == 1)", "FN(tile)(row + 3 * i, cp, 0)"
    ),
    "the +0.0 start dropped": ("const REAL zero = 0;", "const REAL zero = -0.0;"),
    "the land mask ignored": ("if (!h || h[at + i] > 0)", "if (1)"),
    # N before S and E before W: all that the order of a fill's table decides.
    "the table walked backwards": (
        "for (const long *end = t + 8 * n; t < end; t += 8) {",
        "for (const long *end = t, *top = t + 8 * n; top > end && (t = top -= 8, 1);) {",
    ),
}


def mutated(source: str, old: str, new: str) -> str:
    assert source.count(old) == 1, old
    return source.replace(old, new)


def test_the_battery_passes_unmutated():
    assert battery_passes(executors.compiled_nests())


@pytest.mark.parametrize("mutant", sorted(C_MUTANTS))
def test_a_mutant_of_the_c_nest_fails(tmp_path, monkeypatch, mutant):
    executors.compiled_nests()
    source = tmp_path / "loopnest.c"
    source.write_text(mutated(loopnest.SOURCE.read_text(), *C_MUTANTS[mutant]))
    monkeypatch.setattr(loopnest, "SOURCE", source)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert not battery_passes(loopnest._build())  # built and loaded, not self-checked
