"""Distributed time-integration driver over the simulated MPI.

:class:`DistributedModel` runs the same Fig.-2 pipeline as
:class:`repro.core.RTiModel`, but with the blocks partitioned across
simulated-MPI ranks: every inter-rank data movement goes through pack ->
``Communicator.send/recv`` -> unpack, using the exact index math and
buffer layouts of the single-process operators (``seam_copy_specs``,
``pack_restriction``/``unpack_restriction``, ``pack_fluxes``/
``unpack_fluxes``).  A distributed run is therefore bitwise identical to
the single-process model — the correctness contract the paper's
communication migration relies on, verified in
``tests/test_distributed.py``.

Each rank allocates only its own blocks' state (the distributed-memory
point of the exercise); the grid and decomposition metadata are global.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.boundary import (
    apply_open_boundary,
    apply_wall_boundary,
    fill_ghosts_zero_gradient,
)
from repro.core.config import SimulationConfig
from repro.core.mass import nlmass
from repro.core.momentum import nlmnt2
from repro.core.state import BlockState
from repro.grid.hierarchy import NestedGrid
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
from repro.obs.trace import get_tracer
from repro.obs.trace import span as _span
from repro.par.comm import Communicator, run_ranks
from repro.par.decomposition import Decomposition
from repro.xchg.packing import (
    frame_payload,
    pack_boundary_offsets,
    unframe_payload,
    unpack_boundary_offsets,
)
from repro.xchg.specs import seam_copy_specs

# Tag bases per phase (specs/pairs are enumerated deterministically).
_TAG_PTP_Z = 1_000_000
_TAG_PTP_MN = 2_000_000
_TAG_JNZ = 3_000_000
_TAG_JNQ = 4_000_000


@dataclass
class _Topology:
    """Deterministic global communication plan (identical on all ranks)."""

    owner: dict[int, int]  # block_id -> rank
    seam_specs: list  # [(spec, tag_index)]
    #: Per child level, coarsest first: [(child, parent, regions, segments, tag)]
    links: list[list]
    outer_sides: dict[int, tuple[str, ...]]


def _build_topology(grid: NestedGrid, decomp: Decomposition, cfg) -> _Topology:
    owner = decomp.owner_map()

    seam_specs = []
    tag = 0
    for lvl in grid.levels:
        for a, b in lvl.neighbor_pairs():
            for spec in seam_copy_specs(a, b):
                seam_specs.append((spec, tag))
                tag += 1

    segments: dict[int, dict] = {}
    outer: dict[int, tuple[str, ...]] = {}
    for lvl in grid.levels:
        for blk in lvl.blocks:
            segs = child_boundary_segments(lvl.blocks, blk)
            segments[blk.block_id] = segs
            outer[blk.block_id] = tuple(s for s, v in segs.items() if v)
    links = []
    tag = 0
    for lvl in grid.levels[1:]:
        links.append([])
        for child in lvl.blocks:
            for parent in grid.parent_blocks_of(child):
                regions = restriction_region(
                    parent, child, mode=cfg.restriction,
                    width=cfg.restriction_width,
                )
                links[-1].append(
                    (child, parent, tuple(regions),
                     segments[child.block_id], tag)
                )
                tag += 1
    return _Topology(owner, seam_specs, links, outer)


class _RankRuntime:
    """Per-rank state and one-step pipeline."""

    def __init__(
        self,
        comm: Communicator,
        grid: NestedGrid,
        decomp: Decomposition,
        bathymetry,
        cfg: SimulationConfig,
        topo: _Topology,
        frame_halos: bool = False,
    ) -> None:
        self.comm = comm
        self.grid = grid
        self.cfg = cfg
        self.topo = topo
        self.bathymetry = bathymetry
        # With frame_halos, packed seam buffers carry a CRC-32 trailer
        # verified before unpacking (the xchg-level ABFT check, on top
        # of any transport-level MessageIntegrity policy).
        self.frame_halos = frame_halos
        # Rank-local, mutable ownership view.  It starts as a copy of the
        # static plan; the survivable runtime retargets entries when it
        # migrates blocks (straggler hedging), identically on every rank,
        # so the deterministic exchange order is preserved.
        self.owner: dict[int, int] = dict(topo.owner)
        self.states: dict[int, BlockState] = {}
        for it in decomp.ranks[comm.rank].items:
            blk = it.block
            self.states[blk.block_id] = self._make_state(blk)

    def _make_state(self, blk) -> BlockState:
        g = NGHOST
        lvl = self.grid.level(blk.level)
        depth = self.bathymetry.sample_cells(
            (blk.gi0 - g) * lvl.dx,
            (blk.gj0 - g) * lvl.dx,
            blk.nx + 2 * g,
            blk.ny + 2 * g,
            lvl.dx,
        )
        return BlockState(blk, lvl.dx, depth, dtype=self.cfg.dtype)

    def _local(self, block_id: int) -> bool:
        return block_id in self.states

    # -- state capture / restore (diskless checkpoints, migration) -------

    def snapshot_blocks(self, block_ids=None) -> dict[int, tuple]:
        """Deep-copy the full prognostic state of the given local blocks.

        Returns ``{block_id: (z0, z1, m0, m1, n0, n1, flip)}`` — the same
        buffer layout as :class:`repro.resilience.checkpoint.Checkpoint`.
        The arrays are copies: safe to ship over the transport and to
        keep across subsequent steps.
        """
        if block_ids is None:
            block_ids = self.states.keys()
        out: dict[int, tuple] = {}
        for bid in block_ids:
            st = self.states[bid]
            out[bid] = (
                *(a.copy() for a in (*st._z, *st._m, *st._n)),
                st._flip,
            )
        return out

    def restore_blocks(self, data: dict[int, tuple]) -> None:
        """Overwrite local block states from :meth:`snapshot_blocks` data.

        Entries for blocks this rank does not own are ignored, so the
        caller can hand every rank the same global restore map.
        """
        for bid, st in self.states.items():
            if bid not in data:
                continue
            z0, z1, m0, m1, n0, n1, flip = data[bid]
            st._z[0][...] = z0
            st._z[1][...] = z1
            st._m[0][...] = m0
            st._m[1][...] = m1
            st._n[0][...] = n0
            st._n[1][...] = n1
            st._flip = flip

    def adopt_blocks(self, data: dict[int, tuple]) -> None:
        """Take ownership of blocks migrated from another rank."""
        for bid in data:
            self.states[bid] = self._make_state(self.grid.block(bid))
        self.restore_blocks(data)

    def drop_blocks(self, block_ids) -> None:
        """Release ownership of blocks migrated to another rank."""
        for bid in list(block_ids):
            self.states.pop(bid, None)

    def _field(self, state: BlockState, name: str) -> np.ndarray:
        return {"z": state.z_new, "m": state.m_new, "n": state.n_new}[name]

    # -- exchange phases -------------------------------------------------

    def _ptp(self, fields: tuple[str, ...], tag_base: int) -> None:
        """Halo exchange of the given fields over every seam.

        Specs are processed strictly in the global spec order on every
        rank: a seam's source region may include ghost rows that an
        earlier seam just filled (extended corner ranges), so packing must
        happen *after* all earlier applies — exactly the order the
        single-process model uses, which is what makes the two paths
        bitwise identical.  Sends are buffered, and all ranks walk the
        same total order, so the in-order blocking receives cannot
        deadlock.
        """
        for spec, tag in self.topo.seam_specs:
            if spec.field not in fields:
                continue
            src_rank = self.owner[spec.src_block]
            dst_rank = self.owner[spec.dst_block]
            if src_rank == dst_rank == self.comm.rank:
                src = self._field(self.states[spec.src_block], spec.field)
                dst = self._field(self.states[spec.dst_block], spec.field)
                dst[spec.dst] = src[spec.src]
            elif src_rank == self.comm.rank:
                arr = self._field(self.states[spec.src_block], spec.field)
                with _span("halo_pack", cat="comm", field=spec.field):
                    buf = pack_boundary_offsets([arr], spec.src)
                    if self.frame_halos:
                        buf = frame_payload(buf)
                self.comm.send(buf, dest=dst_rank, tag=tag_base + tag)
            elif dst_rank == self.comm.rank:
                with _span("halo_recv", cat="comm", field=spec.field):
                    buf = self.comm.recv(source=src_rank, tag=tag_base + tag)
                dst = self._field(self.states[spec.dst_block], spec.field)
                with _span("halo_unpack", cat="comm", field=spec.field):
                    if self.frame_halos:
                        buf = unframe_payload(buf)
                    unpack_boundary_offsets(buf, [dst], spec.dst)

    def _jnz(self) -> None:
        """Child-to-parent restriction, finest level first."""
        cfg, me, states = self.cfg, self.comm.rank, self.states
        for links in reversed(self.topo.links):
            for child, parent, regions, _segs, tag in links:
                p_rank = self.owner[parent.block_id]
                if self.owner[child.block_id] != me:
                    continue
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
                    self.comm.send(buf, dest=p_rank, tag=_TAG_JNZ + tag)
            for child, parent, regions, _segs, tag in links:
                c_rank = self.owner[child.block_id]
                if self.owner[parent.block_id] == me and c_rank != me:
                    buf = self.comm.recv(source=c_rank, tag=_TAG_JNZ + tag)
                    ps = states[parent.block_id]
                    unpack_restriction(
                        ps.z_new, parent, regions, buf, parent_h=ps.hz
                    )

    def _jnq(self) -> None:
        """Parent-to-child flux interpolation, coarse level first.

        The cascade matters: a level-(l+1) pack may read a level-l edge
        face that level l's own JNQ (from level l-1) just updated, so a
        level's receives must complete before the next level's packs.
        """
        me, states = self.comm.rank, self.states
        for links in self.topo.links:
            for child, parent, _regions, segs, tag in links:
                c_rank = self.owner[child.block_id]
                if self.owner[parent.block_id] != me:
                    continue
                ps = states[parent.block_id]
                if c_rank == me:
                    cs = states[child.block_id]
                    interpolate_fluxes(
                        ps.m_new, ps.n_new, cs.m_new, cs.n_new,
                        parent, child, segs,
                    )
                else:
                    buf = pack_fluxes(ps.m_new, ps.n_new, parent, child, segs)
                    self.comm.send(buf, dest=c_rank, tag=_TAG_JNQ + tag)
            for child, parent, _regions, segs, tag in links:
                p_rank = self.owner[parent.block_id]
                if self.owner[child.block_id] == me and p_rank != me:
                    buf = self.comm.recv(source=p_rank, tag=_TAG_JNQ + tag)
                    cs = states[child.block_id]
                    unpack_fluxes(cs.m_new, cs.n_new, parent, child, segs, buf)

    # -- one step ----------------------------------------------------------

    def step(self) -> None:
        cfg = self.cfg
        with _span("NLMASS"):
            for st in self.states.values():
                nlmass(
                    st.z_old, st.m_old, st.n_old, st.hz, cfg.dt, st.dx,
                    out=st.z_new, dry_threshold=cfg.dry_threshold,
                )
        with _span("JNZ", cat="comm"):
            self._jnz()
        with _span("PTP_Z", cat="comm"):
            for st in self.states.values():
                fill_ghosts_zero_gradient(st.z_new, ("W", "E", "S", "N"))
            self._ptp(("z",), _TAG_PTP_Z)
        with _span("NLMNT2"):
            for st in self.states.values():
                nlmnt2(
                    st.z_new, st.m_old, st.n_old, st.hz, cfg.dt, st.dx,
                    cfg.manning, out_m=st.m_new, out_n=st.n_new,
                    nonlinear=cfg.nonlinear, dry_threshold=cfg.dry_threshold,
                    velocity_cap=cfg.velocity_cap,
                )
        with _span("JNQ", cat="comm"):
            for bid, st in self.states.items():
                if st.block.level != 1:
                    continue
                sides = self.topo.outer_sides[bid]
                if not sides:
                    continue
                if cfg.boundary == "open":
                    apply_open_boundary(
                        st.z_new, st.m_new, st.n_new, st.hz, sides
                    )
                else:
                    apply_wall_boundary(st.m_new, st.n_new, sides)
            self._jnq()
        with _span("PTP_MN", cat="comm"):
            for st in self.states.values():
                fill_ghosts_zero_gradient(st.m_new, ("W", "E", "S", "N"))
                fill_ghosts_zero_gradient(st.n_new, ("W", "E", "S", "N"))
            self._ptp(("m", "n"), _TAG_PTP_MN)
        with _span("OUTPUT"):
            for st in self.states.values():
                st.swap()


def run_distributed(
    grid: NestedGrid,
    bathymetry,
    config: SimulationConfig,
    decomp: Decomposition,
    source,
    n_steps: int,
    timeout: float = 300.0,
    comm_timeout: float = 30.0,
    fault_plan=None,
    store=None,
    integrity=None,
) -> dict[int, np.ndarray]:
    """Run the pipeline on ``decomp.n_ranks`` simulated MPI ranks.

    Returns the final water level (physical cells) of every block,
    gathered from all ranks.

    *comm_timeout* bounds every blocking transport operation (and thus
    how long a rank stalls on a lost message before raising
    :class:`~repro.errors.CommTimeoutError`).  *fault_plan* is an
    optional :class:`repro.resilience.FaultPlan` whose communication
    faults (rank crashes, message drops/delays, stragglers) are injected
    into each rank's transport — the chaos-testing surface of the
    resilience layer.

    *store* (a :class:`repro.persist.RunStore`) makes the distributed
    run observable and restart-aware: start/interruption/completion are
    journaled write-ahead (SIGTERM/SIGINT are caught while the ranks
    run), and the gathered final water level is published atomically
    into the store's products directory.

    *integrity* (a :class:`repro.resilience.integrity.MessageIntegrity`)
    arms the ABFT transport checks: packed halo buffers gain an
    xchg-level CRC trailer and every ndarray payload is CRC-framed at
    the transport with a NACK/retransmit correction path.  Detections
    and corrections land in the policy's shared tracker.
    """
    from repro.fault.scenarios import initial_eta_for_block

    topo = _build_topology(grid, decomp, config)

    comm_wrap = None
    if fault_plan is not None:
        from repro.resilience.inject import FaultyComm

        comm_wrap = lambda comm: FaultyComm(comm, fault_plan)  # noqa: E731

    def rank_main(comm: Communicator) -> dict[int, np.ndarray]:
        # Each rank is a thread: bind the rank id to this thread's spans
        # so trace tracks and the imbalance summary separate per rank.
        get_tracer().set_context(rank=comm.rank)
        rt = _RankRuntime(
            comm, grid, decomp, bathymetry, config, topo,
            frame_halos=integrity is not None,
        )
        if source is not None:
            for bid, st in rt.states.items():
                lvl = grid.level(st.block.level)
                st.set_initial_eta(
                    initial_eta_for_block(
                        source, st.block, lvl.dx, depth=st.depth_interior()
                    )
                )
        for _ in range(n_steps):
            rt.step()
        return {bid: st.eta_interior().copy() for bid, st in rt.states.items()}

    if store is None:
        import contextlib

        guard = contextlib.nullcontext()
    else:
        from repro.persist.signals import interrupt_guard

        store.record_event(
            "distributed_start",
            n_ranks=decomp.n_ranks,
            n_steps=n_steps,
            config=config.to_dict(),
        )
        guard = interrupt_guard(
            journal_fn=lambda sig, _ok: store.record_event(
                "interrupted", signal=sig, phase="distributed"
            )
        )
    # A root span over the whole group: run_ranks captures this thread's
    # context while it is open, so every rank's span tree hangs under it.
    with guard, _span(
        "distributed", cat="step",
        n_ranks=decomp.n_ranks, n_steps=n_steps,
    ):
        results = run_ranks(
            decomp.n_ranks,
            rank_main,
            timeout=timeout,
            comm_timeout=comm_timeout,
            comm_wrap=comm_wrap,
            integrity=integrity,
        )
    merged: dict[int, np.ndarray] = {}
    for part in results:
        merged.update(part)
    if store is not None:
        _publish_distributed_eta(store, merged, n_steps)
    return merged


def _publish_distributed_eta(store, eta_by_block, n_steps: int) -> None:
    """Atomically write the gathered final eta into the store's products."""
    import os

    from repro.errors import PersistError
    from repro.persist.snapshot import fsync_dir

    final = store.products_dir / f"distributed_eta_step_{n_steps:08d}.npz"
    tmp = final.with_name(f".tmp-{final.name}")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh, **{f"b{bid}": a for bid, a in eta_by_block.items()}
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
        fsync_dir(final.parent)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise PersistError(
            f"cannot publish distributed eta {final}: {exc}"
        ) from exc
    store.record_event(
        "distributed_complete", n_steps=n_steps, product=final.name
    )
