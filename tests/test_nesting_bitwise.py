"""The table-driven exchange operators against their frozen seed bodies.

``tests/reference_nesting.py`` holds the seam, JNZ and JNQ operators as
they were when every step re-derived the index geometry.  The shipped ones
look the geometry up in static tables and work region to region; they must
write the same bytes — over random 2-3-level nestings with multi-parent
children, partial seams, land/sea masks, both restriction modes, float32,
and tables already warm from another grid that reuses the same block ids.
"""

import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RTiModel, SimulationConfig
from repro.core import pipeline as model_module
from repro.core.state import BlockState
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.nesting import interp, restrict
from repro.nesting.interp import child_boundary_segments
from repro.topo import build_mini_kochi
from repro.xchg import halo, offsets, specs
from tests import reference_nesting as ref

RATIO = 3

SHIPPED = types.SimpleNamespace(
    seam_copy_specs=specs.seam_copy_specs,
    exchange_halo=halo.exchange_halo,
    restriction_region=restrict.restriction_region,
    pack_restriction=restrict.pack_restriction,
    unpack_restriction=restrict.unpack_restriction,
    restrict_eta=restrict.restrict_eta,
    pack_fluxes=interp.pack_fluxes,
    unpack_fluxes=interp.unpack_fluxes,
    interpolate_fluxes=interp.interpolate_fluxes,
)


# ---------------------------------------------------------------------------
# Random nestings
# ---------------------------------------------------------------------------


@st.composite
def _cuts(draw, lo, hi, unit, max_parts):
    """Sorted cut positions lo..hi, multiples of *unit* away from lo."""
    n = (hi - lo) // unit
    inner = draw(
        st.lists(
            st.integers(1, max(1, n - 1)),
            max_size=min(max_parts, n) - 1,
            unique=True,
        )
    )
    return [lo, *(lo + unit * k for k in sorted(inner)), hi]


@st.composite
def _mosaic(draw, level, first_id, box, unit):
    """Blocks tiling *box*: columns that each cut their rows on their own,
    so neighbouring columns meet in partial seams."""
    i0, j0, i1, j1 = box
    blocks = []
    xs = draw(_cuts(i0, i1, unit, 3))
    for x0, x1 in zip(xs, xs[1:]):
        ys = draw(_cuts(j0, j1, unit, 3))
        for y0, y1 in zip(ys, ys[1:]):
            blocks.append(
                Block(first_id + len(blocks), level, x0, y0, x1 - x0, y1 - y0)
            )
    return blocks


@st.composite
def _sub_box(draw, box):
    """A box of whole cells inside *box*, at least 1x1."""
    i0, j0, i1, j1 = box
    a = draw(st.integers(i0, i1 - 1))
    b = draw(st.integers(a + 1, min(i1, a + 5)))
    c = draw(st.integers(j0, j1 - 1))
    d = draw(st.integers(c + 1, min(j1, c + 5)))
    return (a, c, b, d)


@st.composite
def nestings(draw):
    """A valid 2-3-level :class:`NestedGrid`, block ids from 0."""
    box = (0, 0, draw(st.integers(3, 10)), draw(st.integers(3, 10)))
    levels, next_id, dx = [], 0, 900.0
    for index in range(1, draw(st.integers(2, 3)) + 1):
        blocks = draw(_mosaic(index, next_id, box, 1 if index == 1 else RATIO))
        levels.append(GridLevel(index=index, dx=dx, blocks=blocks))
        next_id += len(blocks)
        dx /= RATIO
        # The next level refines a sub-box of this one (in this level's
        # cells), which may straddle block edges: multi-parent children.
        box = tuple(RATIO * v for v in draw(_sub_box(box)))
    return NestedGrid(levels)


def make_states(grid, seed, dtype):
    """Random write buffers and a land/sea depth per block (same per seed)."""
    rng = np.random.default_rng(seed)
    states = {}
    for blk in grid.all_blocks():
        depth = rng.uniform(-1.0, 2.0, (blk.ny + 4, blk.nx + 4))
        state = states[blk.block_id] = BlockState(blk, 1.0, depth, dtype=dtype)
        for arr in (state.z_new, state.m_new, state.n_new):
            arr[...] = rng.normal(0.0, 1.0, arr.shape)
    return states


def sweep(ops, grid, states, mode, width, masked, via_buffers):
    """One step's exchange phases in pipeline order; returns what they return."""
    log = []
    for lvl in reversed(grid.levels[1:]):  # JNZ, finest first
        for child in lvl.blocks:
            for parent in grid.parent_blocks_of(child):
                p, c = states[parent.block_id], states[child.block_id]
                mask = p.hz if masked else None
                if via_buffers:
                    regions = ops.restriction_region(parent, child, mode, width)
                    buf = ops.pack_restriction(c.z_new, child, regions)
                    log += [buf, ops.unpack_restriction(
                        p.z_new, parent, regions, buf, parent_h=mask)]
                else:
                    log.append(ops.restrict_eta(
                        p.z_new, c.z_new, parent, child,
                        mode=mode, width=width, parent_h=mask))
    seams = [pair for lvl in grid.levels for pair in lvl.neighbor_pairs()]
    for a, b in seams:  # PTP_Z
        log.append(list(ops.seam_copy_specs(a, b)))
        ops.exchange_halo(states[a.block_id], states[b.block_id], "z")
    for lvl in grid.levels[1:]:  # JNQ, coarsest first
        for child in lvl.blocks:
            segs = child_boundary_segments(lvl.blocks, child)
            for parent in grid.parent_blocks_of(child):
                p, c = states[parent.block_id], states[child.block_id]
                if via_buffers:
                    buf = ops.pack_fluxes(p.m_new, p.n_new, parent, child, segs)
                    log += [buf, ops.unpack_fluxes(
                        c.m_new, c.n_new, parent, child, segs, buf)]
                else:
                    log.append(ops.interpolate_fluxes(
                        p.m_new, p.n_new, c.m_new, c.n_new, parent, child, segs))
    for a, b in seams:  # PTP_MN
        ops.exchange_halo(states[a.block_id], states[b.block_id], "m")
        ops.exchange_halo(states[a.block_id], states[b.block_id], "n")
    return log


def same_bytes(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and (
            a.tobytes() == b.tobytes())
    return a == b


def attempt(ops, grid, states, *args):
    """The sweep's log — or the exception type where the seed geometry itself
    fails: ``restriction_region`` (unchanged, and frozen in the reference)
    lets the middle band of a multi-parent child run past a parent block
    thinner than the footprint, which neither operator set can scatter."""
    try:
        return sweep(ops, grid, states, *args)
    except ValueError as exc:
        return type(exc)


def assert_sweeps_match(grid, seed, dtype, mode, width, masked):
    for via_buffers in (False, True):
        got, want = (make_states(grid, seed, dtype) for _ in range(2))
        want_log = attempt(ref, grid, want, mode, width, masked, via_buffers)
        got_log = attempt(SHIPPED, grid, got, mode, width, masked, via_buffers)
        if isinstance(want_log, type):
            assert got_log is want_log
            continue
        assert len(got_log) == len(want_log)
        for a, b in zip(got_log, want_log):
            assert same_bytes(a, b)
        for bid, state in got.items():
            for name in ("z_new", "m_new", "n_new"):
                assert same_bytes(
                    getattr(state, name), getattr(want[bid], name)
                ), f"{name} of block {bid} (via_buffers={via_buffers})"


@given(
    warm=nestings(),
    grid=nestings(),
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float64, np.float32]),
    mode=st.sampled_from(["boundary", "full"]),
    width=st.integers(1, 3),
    masked=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_exchange_operators_match_frozen_bodies(
    warm, grid, seed, dtype, mode, width, masked
):
    # *warm* numbers its blocks like *grid* but places them elsewhere: a
    # table keyed on ids (or on id() of a dict) would now serve stale rows.
    assert_sweeps_match(warm, seed, dtype, mode, width, masked)
    assert_sweeps_match(grid, seed, dtype, mode, width, masked)


@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float64, np.float32]),
    n_regions=st.integers(0, 5),
)
@settings(max_examples=60, deadline=None)
def test_listing6_pack_matches_frozen_body(seed, dtype, n_regions):
    rng = np.random.default_rng(seed)
    field = rng.normal(0, 1, (30, 30)).astype(dtype)
    regions = []
    for _ in range(n_regions):
        j0, i0 = (RATIO * int(v) for v in rng.integers(0, 5, 2))
        jn, in_ = (RATIO * int(v) for v in rng.integers(1, 4, 2))
        regions.append((j0, min(j0 + jn, 30), i0, min(i0 + in_, 30)))
    assert same_bytes(
        offsets.pack_irregular_offsets(field, regions),
        ref.pack_irregular_offsets(field, regions),
    )


def test_mini_kochi_steps_match_frozen_bodies(monkeypatch):
    """The whole pipeline: RTiModel on the tables vs on the frozen bodies."""
    mk = build_mini_kochi()
    source = GaussianSource(x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0)

    def run():
        model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
        model.set_initial_condition(source)
        model.run(40)
        return model.states

    got = run()
    for name in ("restrict_eta", "interpolate_fluxes", "exchange_halo"):
        monkeypatch.setattr(model_module, name, getattr(ref, name))
    want = run()
    for bid, state in got.items():
        for name in ("z_old", "m_old", "n_old"):
            assert same_bytes(getattr(state, name), getattr(want[bid], name))
