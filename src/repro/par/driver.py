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
:class:`_RankRuntime` is one rank's set-up — trace context, allocation,
initial condition — and its step and gather, for this driver and for
the survivable runtime alike.

:func:`run_distributed` is launch + step and nothing else.  What a
persisted multi-rank run writes (journal, final product), its SIGTERM
capture, fault injection, replicated checkpoints and recovery policy
all live in :func:`repro.resilience.survive.survivable_run_distributed`.

A rank is a process (:func:`repro.par.comm.run_ranks`): ranks over
shared-memory slots sized from the plan's largest packed message
(:func:`_slot_bytes`, for this driver and the survivable runtime alike)
run the kernels in parallel.  DESIGN.md section 9e.
"""

from __future__ import annotations

import numpy as np

from repro.constants import REFINEMENT_RATIO
from repro.core import loopnest
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
    """One rank's blocks, and its view of who owns every block.

    *initial* is the initial condition of the rank's blocks: a source
    (imposed as in ``RTiModel.set_initial_condition``), a restored
    :class:`~repro.resilience.checkpoint.Checkpoint` (each block takes
    its captured state) or ``None`` (a sea at rest).
    """

    def __init__(
        self,
        comm: Communicator,
        grid: NestedGrid,
        owner: dict[int, int],
        bathymetry,
        cfg: SimulationConfig,
        plan: StepPlan,
        initial=None,
    ) -> None:
        # Bind the rank id to this rank's spans so trace tracks and the
        # imbalance summary separate per rank.
        get_tracer().set_context(rank=comm.rank)
        self.comm = comm
        self.grid = grid
        self.cfg = cfg
        self.plan = plan
        self.bathymetry = bathymetry
        # Rank-local, mutable ownership view.  It starts as a copy of the
        # decomposition's map; the survivable runtime retargets entries
        # when it migrates blocks (straggler hedging), identically on
        # every rank, so the deterministic exchange order is preserved.
        self.owner: dict[int, int] = dict(owner)
        self.states: dict[int, BlockState] = {}
        self._allocate(b for b, r in owner.items() if r == comm.rank)
        captured = getattr(initial, "states", None)
        if captured is not None:
            for bid, st in self.states.items():
                st.restore(captured[bid])
        elif initial is not None:
            impose_source(self.states, initial)

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
        run_step(self.plan, self.states, self.owner, self.cfg, self.comm)

    def eta(self) -> dict[int, np.ndarray]:
        """A copy of the water level (physical cells) of this rank's blocks."""
        return {bid: st.eta_interior().copy() for bid, st in self.states.items()}


def _slot_bytes(plan: StepPlan, owner, config) -> int:
    """Slot size [bytes] of the rank processes of a run under *owner*.

    Readies this process to fork first: the strip team is sent home and
    the kernels' executor is chosen.  The slot then holds the largest
    packed message that crosses ranks under *owner*: a seam region, a JNZ
    buffer (one value per parent cell) or a JNQ buffer (one per parent
    face along the child's open boundary — the bound; a parent that
    covers only part of it sends less).
    """
    # The strip team's parked helpers are threads of ours, not somebody
    # else's: send them home before forking.  The next kernel call of two
    # or more strips forms a team again — in each rank process its own,
    # from that rank's share of the CPUs (the launcher resets the share).
    disband_team(cpu_share=len(set(owner.values())))
    # The kernels' executor is chosen here, once: a forked rank inherits the
    # loaded nest and what its self-check imported, and imports nothing.
    loopnest.choice()
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
) -> dict[int, np.ndarray]:
    """Run the pipeline on ``decomp.n_ranks`` simulated MPI ranks.

    Returns the final water level (physical cells) of every block,
    gathered from all ranks.

    *comm_timeout* bounds every blocking transport operation (and thus
    how long a rank stalls on a lost message before raising
    :class:`~repro.errors.CommTimeoutError`).

    A run that must survive a rank's loss, be journaled or catch
    SIGTERM is :func:`repro.resilience.survive.survivable_run_distributed`.
    """
    plan = build_step_plan(grid, config)
    owner = decomp.owner_map()

    def rank_main(comm: Communicator) -> dict[int, np.ndarray]:
        rt = _RankRuntime(comm, grid, owner, bathymetry, config, plan, source)
        for _ in range(n_steps):
            rt.step()
        return rt.eta()

    # A root span over the whole group: run_ranks captures this thread's
    # context while it is open (before it forks, on processes), so every
    # rank's span tree hangs under it.
    try:
        with _span(
            "distributed", cat="step",
            n_ranks=decomp.n_ranks, n_steps=n_steps,
        ):
            results = run_ranks(
                decomp.n_ranks,
                rank_main,
                timeout=timeout,
                comm_timeout=comm_timeout,
                slot_bytes=_slot_bytes(plan, owner, config),
            )
    finally:
        disband_team()  # the next strip team has the machine to itself again
    merged: dict[int, np.ndarray] = {}
    for part in results:
        merged.update(part)
    return merged
