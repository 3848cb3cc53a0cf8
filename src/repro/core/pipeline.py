"""The one Fig.-2 step pipeline, for one owner of the blocks or many.

:func:`run_step` is the routine pipeline of the paper's Figure 2:

1. ``NLMASS``  — continuity update on every block;
2. ``JNZ``     — child-to-parent water-level restriction;
3. ``PTP_Z``   — intra-level halo exchange of the water level;
4. ``NLMNT2``  — momentum update on every block;
5. outer boundary conditions on level 1 / ``JNQ`` parent-to-child flux
   interpolation on finer levels;
6. ``PTP_MN``  — intra-level halo exchange of the fluxes;
7. ``OUTPUT``  — output accumulation and double-buffer swap.

It is written once, and only the data movement varies: at each seam and
nesting link of the static :class:`StepPlan` the body asks who owns the
two ends.  Both mine: the in-process operator (on the compiled nest, one
prepared launch: DESIGN.md section 9i).  One mine: pack -> ``comm.send`` /
``comm.recv`` -> unpack over the same index math, so any assignment of
blocks to ranks is bitwise identical to the one-owner run
(:class:`repro.core.RTiModel`; :mod:`repro.par.driver` runs the body in
every rank process).  DESIGN.md section 9d records the decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.boundary import (
    apply_open_boundary,
    apply_wall_boundary,
    fill_ghosts_zero_gradient,
)
from repro.core.loopnest import ran as _ran
from repro.core.mass import nlmass
from repro.core.momentum import nlmnt2
from repro.core.state import BlockState
from repro.grid.cfl import check_cfl_depth_field
from repro.grid.staggered import NGHOST
from repro.nesting.interp import (
    child_boundary_segments,
    interpolate_fluxes,
    pack_fluxes,
    unpack_fluxes,
)
from repro.nesting.restrict import (
    pack_restriction,
    restrict_eta,
    restriction_region,
    unpack_restriction,
)
from repro.obs.trace import NOOP_SPAN as _NOOP_SPAN
from repro.obs.trace import get_tracer
from repro.obs.trace import span as _span
from repro.xchg.halo import exchange_halo
from repro.xchg.packing import pack_boundary_offsets, unpack_boundary_offsets
from repro.xchg.specs import seam_copy_specs

_TRACER = get_tracer()
_ALL_SIDES = ("W", "E", "S", "N")

# Tag bases per phase (specs/links are enumerated deterministically).
_TAG_PTP_Z = 1_000_000
_TAG_PTP_MN = 2_000_000
_TAG_JNZ = 3_000_000
_TAG_JNQ = 4_000_000


@dataclass(frozen=True)
class StepPlan:
    """Static exchange plan of a grid, identical on every rank.

    Computed once: the grid organization is fixed during runtime, as the
    paper exploits in Listing 6.  It says nothing about ownership, so one
    plan serves every decomposition of the grid.
    """

    #: Intra-level seams in global order: ``(a, b, specs, first_tag)``.
    seams: tuple
    #: Per child level, coarsest first: ``(level, links)`` with links
    #: ``(child, parent, regions, segments, tag)``.
    links: tuple
    #: Level-1 blocks with sides no neighbor covers: ``(block_id, sides)``.
    outer: tuple


def build_step_plan(grid, cfg) -> StepPlan:
    """Enumerate the seams, nesting links and outer sides of *grid*."""
    seams, tag = [], 0
    for lvl in grid.levels:
        for a, b in lvl.neighbor_pairs():
            specs = seam_copy_specs(a, b)
            seams.append((a, b, specs, tag))
            tag += len(specs)

    level1 = grid.level(1).blocks
    outer = []
    for blk in level1:
        # Sides with at least one segment not covered by a neighbor.
        segs = child_boundary_segments(level1, blk)
        sides = tuple(side for side, on_side in segs.items() if on_side)
        if sides:
            outer.append((blk.block_id, sides))

    levels, tag = [], 0
    for lvl in grid.levels[1:]:
        links = []
        for child in lvl.blocks:
            segs = child_boundary_segments(lvl.blocks, child)
            for parent in grid.parent_blocks_of(child):
                regions = restriction_region(
                    parent, child, mode=cfg.restriction,
                    width=cfg.restriction_width,
                )
                links.append((child, parent, tuple(regions), segs, tag))
                tag += 1
        levels.append((lvl.index, tuple(links)))
    return StepPlan(tuple(seams), tuple(levels), tuple(outer))


def make_block_state(grid, bathymetry, cfg, blk) -> BlockState:
    """Sample a block's depth, check ``cfg.dt`` against it, allocate."""
    g = NGHOST
    dx = grid.level(blk.level).dx
    depth = bathymetry.sample_cells(
        (blk.gi0 - g) * dx,
        (blk.gj0 - g) * dx,
        blk.nx + 2 * g,
        blk.ny + 2 * g,
        dx,
    )
    # Only the physical cells plus one ghost layer feed the kernels
    # (edge faces are overwritten by BC/coupling).
    check_cfl_depth_field(dx, cfg.dt, depth[1:-1, 1:-1])
    return BlockState(blk, dx, depth, dtype=cfg.dtype)


def _ptp(plan, states, owner, me, comm, fields, tag_base) -> None:
    """Halo exchange of the given fields over every seam.

    Seams and their specs are processed strictly in the global order on
    every rank: a seam's source region may include ghost rows that an
    earlier seam just filled (extended corner ranges), so packing must
    happen *after* all earlier applies — the order the one-owner run
    uses, which is what makes every decomposition bitwise identical to
    it.  Sends are buffered, and all ranks walk the same total order, so
    the in-order blocking receives cannot deadlock.
    """
    for a, b, specs, tag0 in plan.seams:
        a_rank, b_rank = owner[a.block_id], owner[b.block_id]
        if a_rank == b_rank == me:
            for which in fields:
                exchange_halo(states[a.block_id], states[b.block_id], which)
        elif me in (a_rank, b_rank):
            for tag, spec in enumerate(specs, tag_base + tag0):
                if spec.field not in fields:
                    continue
                if owner[spec.src_block] == me:
                    arr = getattr(states[spec.src_block], spec.field + "_new")
                    with _span("halo_pack", cat="comm", field=spec.field):
                        buf = pack_boundary_offsets([arr], spec.src)
                    comm.send(buf, dest=owner[spec.dst_block], tag=tag)
                else:
                    with _span("halo_recv", cat="comm", field=spec.field):
                        buf = comm.recv(source=owner[spec.src_block], tag=tag)
                    arr = getattr(states[spec.dst_block], spec.field + "_new")
                    with _span("halo_unpack", cat="comm", field=spec.field):
                        unpack_boundary_offsets(buf, [arr], spec.dst)


def _jnz(links, states, owner, me, comm, cfg) -> None:
    """One level's child-to-parent restriction."""
    inbound = []
    for child, parent, regions, _segs, tag in links:
        c_rank, p_rank = owner[child.block_id], owner[parent.block_id]
        if c_rank == me:
            child_z = states[child.block_id].z_new
            if p_rank == me:
                ps = states[parent.block_id]
                restrict_eta(
                    ps.z_new, child_z, parent, child,
                    mode=cfg.restriction, width=cfg.restriction_width,
                    parent_h=ps.hz,
                )
            else:
                buf = pack_restriction(child_z, child, regions)
                comm.send(buf, dest=p_rank, tag=_TAG_JNZ + tag)
        elif p_rank == me:
            inbound.append((c_rank, parent, regions, tag))
    for c_rank, parent, regions, tag in inbound:
        buf = comm.recv(source=c_rank, tag=_TAG_JNZ + tag)
        ps = states[parent.block_id]
        unpack_restriction(ps.z_new, parent, regions, buf, parent_h=ps.hz)


def _jnq(links, states, owner, me, comm) -> None:
    """One level's parent-to-child flux interpolation."""
    inbound = []
    for child, parent, _regions, segs, tag in links:
        c_rank, p_rank = owner[child.block_id], owner[parent.block_id]
        if p_rank == me:
            ps = states[parent.block_id]
            if c_rank == me:
                cs = states[child.block_id]
                interpolate_fluxes(
                    ps.m_new, ps.n_new, cs.m_new, cs.n_new,
                    parent, child, segs,
                )
            else:
                buf = pack_fluxes(ps.m_new, ps.n_new, parent, child, segs)
                comm.send(buf, dest=c_rank, tag=_TAG_JNQ + tag)
        elif c_rank == me:
            inbound.append((p_rank, child, parent, segs, tag))
    for p_rank, child, parent, segs, tag in inbound:
        buf = comm.recv(source=p_rank, tag=_TAG_JNQ + tag)
        cs = states[child.block_id]
        unpack_fluxes(cs.m_new, cs.n_new, parent, child, segs, buf)


def run_step(
    plan: StepPlan,
    states: dict[int, BlockState],
    owner: dict[int, int],
    cfg,
    comm=None,
    outputs=None,
    time: float = 0.0,
) -> None:
    """Advance the blocks in *states* by one leap-frog step.

    *states* holds the blocks this caller owns and *owner* maps every
    block of the grid to its rank; *comm* (``None`` when one caller owns
    everything) carries what crosses ranks.  *outputs*, when given, maps
    each owned block to the :class:`~repro.core.outputs.OutputAccumulator`
    updated at *time*, the model time this step reaches.

    Every phase opens a :func:`repro.obs.trace.span` named after the
    paper's routine (the ``BREAKDOWN_PHASES`` vocabulary), so a traced
    run renders the same stacked-bar accounting as the offline
    performance replay.  With tracing disabled (the default) each span
    is a shared no-op that builds and allocates nothing — counted in
    ``tests/test_obs.py`` (``test_disabled_tracer_creates_no_span_...``).
    """
    me = 0 if comm is None else comm.rank
    obs_on = _TRACER.enabled

    # Per-block kernel spans carry the block's cell count and what ran the
    # kernel on that block ("nest", or "numpy" where the block's call was not
    # one the nest takes) so live traces can recalibrate the Fig.-5 linear
    # cost model per executor (repro.balance.calibrate); the hoisted obs_on
    # check keeps the disabled path allocation-free.
    with _span("NLMASS"):
        for st in states.values():
            with (
                _span("NLMASS.kernel", cells=st.block.n_cells) if obs_on else _NOOP_SPAN
            ) as sp:
                nlmass(
                    st.z_old, st.m_old, st.n_old, st.hz, cfg.dt, st.dx,
                    out=st.z_new, dry_threshold=cfg.dry_threshold,
                )
                if obs_on:
                    sp.set(executor=_ran())

    # Finest level first, so a multi-level cascade settles coarse levels
    # last.
    with _span("JNZ", cat="comm"):
        for level, links in reversed(plan.links):
            with _span("restrict", cat="comm", level=level):
                _jnz(links, states, owner, me, comm, cfg)

    with _span("PTP_Z", cat="comm"):
        for st in states.values():
            fill_ghosts_zero_gradient(st.z_new, _ALL_SIDES)
        _ptp(plan, states, owner, me, comm, ("z",), _TAG_PTP_Z)

    with _span("NLMNT2"):
        for st in states.values():
            with (
                _span("NLMNT2.kernel", cells=st.block.n_cells) if obs_on else _NOOP_SPAN
            ) as sp:
                nlmnt2(
                    st.z_new, st.m_old, st.n_old, st.hz, cfg.dt, st.dx,
                    cfg.manning, out_m=st.m_new, out_n=st.n_new,
                    nonlinear=cfg.nonlinear,
                    dry_threshold=cfg.dry_threshold,
                    velocity_cap=cfg.velocity_cap,
                )
                if obs_on:
                    sp.set(executor=_ran())

    # Outer BC on level 1, JNQ elsewhere, coarse level first.  The
    # cascade matters: a level-(l+1) pack may read a level-l edge face
    # that level l's own JNQ (from level l-1) just updated, so a level's
    # receives must complete before the next level's packs.
    with _span("JNQ", cat="comm"):
        for bid, sides in plan.outer:
            st = states.get(bid)
            if st is None:
                continue
            if cfg.boundary == "open":
                apply_open_boundary(st.z_new, st.m_new, st.n_new, st.hz, sides)
            else:
                apply_wall_boundary(st.m_new, st.n_new, sides)
        for level, links in plan.links:
            with _span("interp", cat="comm", level=level):
                _jnq(links, states, owner, me, comm)

    with _span("PTP_MN", cat="comm"):
        for st in states.values():
            fill_ghosts_zero_gradient(st.m_new, _ALL_SIDES)
            fill_ghosts_zero_gradient(st.n_new, _ALL_SIDES)
        _ptp(plan, states, owner, me, comm, ("m", "n"), _TAG_PTP_MN)

    with _span("OUTPUT"):
        for bid, st in states.items():
            if outputs is not None:
                with (
                    _span("OUTPUT.kernel", cells=st.block.n_cells) if obs_on else _NOOP_SPAN
                ) as sp:
                    outputs[bid].update(
                        st.z_new, st.m_new, st.n_new, st.hz, time,
                        dry_threshold=cfg.dry_threshold,
                    )
                    if obs_on:
                        sp.set(executor=_ran())
            st.swap()
