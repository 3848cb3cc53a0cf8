"""Distributed time-integration driver over the simulated MPI.

:func:`run_distributed` runs the Fig.-2 pipeline of
:class:`repro.core.RTiModel` — the same body,
:func:`repro.core.pipeline.run_step` — with the blocks partitioned across
simulated-MPI ranks: every inter-rank data movement goes through pack ->
``Communicator.send/recv`` -> unpack, using the exact index math and
buffer layouts of the single-process operators (``seam_copy_specs``,
``pack_restriction``/``unpack_restriction``, ``pack_fluxes``/
``unpack_fluxes``).  A distributed run is therefore bitwise identical to
the single-process model — the correctness contract the paper's
communication migration relies on, verified in
``tests/test_distributed.py``.

Each rank allocates only its own blocks' state (the distributed-memory
point of the exercise); the grid, plan and ownership map are global.

A rank is a process where it can be and a thread where it must be
(:func:`_slot_bytes` decides, from what it can observe — there is no
flag): rank processes over shared-memory slots sized from the plan's
largest packed message run the kernels in parallel, which rank threads
behind one interpreter lock do not; rank threads are the world in which
faults can be injected, messages CRC-framed and ranks killed and
replaced (:mod:`repro.resilience.survive` always runs on them).  The
step body, tags, walk order and packing are the same on both, so both
are bitwise identical to the model.  DESIGN.md section 9e.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.artifacts import publishing
from repro.constants import REFINEMENT_RATIO
from repro.core.config import SimulationConfig
from repro.core.pipeline import (
    StepPlan,
    build_step_plan,
    make_block_state,
    run_step,
)
from repro.core.scratch import disband_team
from repro.core.state import BlockState
from repro.fault.scenarios import impose_source
from repro.grid.hierarchy import NestedGrid
from repro.nesting.restrict import restriction_buffer_cells
from repro.obs.trace import get_tracer
from repro.obs.trace import span as _span
from repro.par.comm import Communicator, run_ranks
from repro.par.decomposition import Decomposition


class _RankRuntime:
    """One rank's blocks, and its view of who owns every block."""

    def __init__(
        self,
        comm: Communicator,
        grid: NestedGrid,
        owner: dict[int, int],
        bathymetry,
        cfg: SimulationConfig,
        plan: StepPlan,
        frame_halos: bool = False,
    ) -> None:
        self.comm = comm
        self.grid = grid
        self.cfg = cfg
        self.plan = plan
        self.bathymetry = bathymetry
        # With frame_halos, packed seam buffers carry a CRC-32 trailer
        # verified before unpacking (the xchg-level ABFT check, on top
        # of any transport-level MessageIntegrity policy).
        self.frame_halos = frame_halos
        # Rank-local, mutable ownership view.  It starts as a copy of the
        # decomposition's map; the survivable runtime retargets entries
        # when it migrates blocks (straggler hedging), identically on
        # every rank, so the deterministic exchange order is preserved.
        self.owner: dict[int, int] = dict(owner)
        self.states: dict[int, BlockState] = {}
        self._allocate(b for b, r in owner.items() if r == comm.rank)

    def _allocate(self, block_ids) -> None:
        for bid in block_ids:
            self.states[bid] = make_block_state(
                self.grid, self.bathymetry, self.cfg, self.grid.block(bid)
            )

    # -- block migration (straggler hedging) -----------------------------

    def adopt_blocks(self, data: dict[int, tuple]) -> None:
        """Take ownership of blocks migrated from another rank, given as
        ``{block_id: BlockState.capture()}``."""
        self._allocate(data)
        for bid, bufs in data.items():
            self.states[bid].restore(bufs)

    def drop_blocks(self, block_ids) -> None:
        """Release ownership of blocks migrated to another rank."""
        for bid in list(block_ids):
            self.states.pop(bid, None)

    def step(self) -> None:
        run_step(
            self.plan, self.states, self.owner, self.cfg, self.comm,
            self.frame_halos,
        )


def _slot_bytes(plan: StepPlan, owner, config, fault_plan, integrity):
    """Slot size [bytes] for rank processes, or ``None`` for rank threads.

    Processes need more than one rank, ``fork``, a caller that is this
    process's only thread (a forked copy of a thread-held lock is never
    released) and nothing armed that lives in one address space: an
    injected fault plan is consumed by all ranks, a message-integrity
    policy keeps one retransmit stash and one tracker.  The slot then
    holds the largest packed message that crosses ranks under *owner*:
    a seam region, a JNZ buffer (one value per parent cell) or a JNQ
    buffer (one per parent face along the child's open boundary — the
    bound; a parent that covers only part of it sends less).
    """
    n_ranks = len(set(owner.values()))
    if (
        n_ranks < 2
        or not hasattr(os, "fork")
        or fault_plan is not None
        or integrity is not None
    ):
        return None
    # The strip team's parked helpers are threads of ours, not somebody
    # else's: send them home before counting.  The next kernel call of two
    # or more strips forms a team again — in each rank process its own,
    # from that rank's share of the CPUs (run_distributed resets the share).
    disband_team(cpu_share=n_ranks)
    if threading.active_count() != 1:
        return None
    cells = [1]
    for a, b, specs, _tag in plan.seams:
        if owner[a.block_id] != owner[b.block_id]:
            cells += [rows * cols for rows, cols in (s.shape() for s in specs)]
    for _level, links in plan.links:
        for child, parent, regions, segments, _tag in links:
            if owner[child.block_id] != owner[parent.block_id]:
                cells.append(restriction_buffer_cells(regions))
                cells.append(sum(
                    (hi - lo) // REFINEMENT_RATIO
                    for side in segments.values() for lo, hi in side
                ))
    return max(cells) * np.dtype(config.dtype).itemsize


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
    plan = build_step_plan(grid, config)
    owner = decomp.owner_map()

    comm_wrap = None
    if fault_plan is not None:
        from repro.resilience.inject import FaultyComm

        comm_wrap = lambda comm: FaultyComm(comm, fault_plan)  # noqa: E731

    def rank_main(comm: Communicator) -> dict[int, np.ndarray]:
        # Bind the rank id to this rank's spans (its thread's, or its
        # process's main thread's) so trace tracks and the imbalance
        # summary separate per rank.
        get_tracer().set_context(rank=comm.rank)
        rt = _RankRuntime(
            comm, grid, owner, bathymetry, config, plan,
            frame_halos=integrity is not None,
        )
        if source is not None:
            impose_source(rt.states, source)
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
    # context while it is open (before it forks, on processes), so every
    # rank's span tree hangs under it.
    try:
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
                slot_bytes=_slot_bytes(plan, owner, config, fault_plan, integrity),
            )
    finally:
        disband_team()  # the next strip team has the machine to itself again
    merged: dict[int, np.ndarray] = {}
    for part in results:
        merged.update(part)
    if store is not None:
        _publish_distributed_eta(store, merged, n_steps)
    return merged


def _publish_distributed_eta(store, eta_by_block, n_steps: int) -> None:
    """Atomically write the gathered final eta into the store's products."""
    final = store.products_dir / f"distributed_eta_step_{n_steps:08d}.npz"
    with publishing(final, "wb") as fh:
        np.savez_compressed(
            fh, **{f"b{bid}": a for bid, a in eta_by_block.items()}
        )
    store.record_event(
        "distributed_complete", n_steps=n_steps, product=final.name
    )
