"""End-to-end application of the load-balance optimization.

Glue between the microbenchmark/fit (Figs. 5-6), Algorithm 1, and the
decomposition machinery: produce the optimized :class:`Decomposition` the
paper uses for its headline results (Figs. 8, 9, 14, 15).
"""

from __future__ import annotations

from repro.balance.hillclimb import optimize_separators
from repro.balance.perfmodel import (
    PAPER_INTERCEPT_US,
    PAPER_SLOPE_US_PER_CELL,
    LinearPerfModel,
    fit_linear_model,
    measure_kernel_runtimes,
)
from repro.errors import DecompositionError
from repro.grid.hierarchy import NestedGrid
from repro.hw.platform import PlatformSpec
from repro.par.decomposition import (
    Decomposition,
    RankWork,
    WorkItem,
    decomposition_from_separators,
    equal_cell_assignment,
    ranks_per_level,
)


def fit_platform_model(
    platform: PlatformSpec,
    n_queues: int | None = None,
    seed_sizes: list[int] | None = None,
) -> LinearPerfModel:
    """Microbenchmark + fit for one platform (the Fig.-5 procedure).

    GPUs are benchmarked with four asynchronous queues (the paper's
    configuration); CPUs and VEs execute kernels one at a time.
    """
    if n_queues is None:
        n_queues = 4 if platform.kind == "gpu" else 1
    sizes = seed_sizes or [
        50_000,
        150_000,
        300_000,
        500_000,
        750_000,
        1_000_000,
        1_500_000,
        2_000_000,
    ]
    times = measure_kernel_runtimes(platform, sizes, n_queues=n_queues)
    return fit_linear_model(sizes, times)


def optimized_decomposition(
    grid: NestedGrid,
    total_ranks: int,
    platform: PlatformSpec,
    model: LinearPerfModel | None = None,
    iterations: int = 4000,
    seed: int = 0,
) -> Decomposition:
    """Decomposition with per-level separators tuned by Algorithm 1.

    Falls back to the cell-equalizing split when a level's rank count
    exceeds its block count, or there are fewer ranks than levels (those
    need intra-block row splits, which the separator representation does
    not express) — in the evaluated configurations (8-32 ranks on the
    Kochi grid) every level has enough blocks.  Whichever it is, the
    result is kept only if its model makespan is no worse than the
    whole-block baseline's (``equal_cell_assignment(...,
    split_blocks=False)``); otherwise the baseline is returned.
    """
    model = model or fit_platform_model(platform)
    base = equal_cell_assignment(grid, total_ranks, split_blocks=False)
    alloc = (
        ranks_per_level(grid, total_ranks)
        if total_ranks >= grid.n_levels else None
    )
    if alloc is None or any(
        n > lvl.n_blocks for lvl, n in zip(grid.levels, alloc)
    ):
        tuned = equal_cell_assignment(grid, total_ranks)
    else:
        separators = {
            lvl.index: optimize_separators(
                [b.n_cells for b in sorted(lvl.blocks,
                                           key=lambda b: b.block_id)],
                n, model, iterations=iterations, seed=seed + lvl.index,
            )
            for lvl, n in zip(grid.levels, alloc)
        }
        tuned = decomposition_from_separators(grid, separators)
    return min((tuned, base), key=lambda d: makespan_us(d, model))


def makespan_us(decomp: Decomposition, model: LinearPerfModel) -> float:
    """The model's predicted time of the slowest rank [us]."""
    return max(
        model.rank_time_us([it.n_cells for it in rw.items])
        for rw in decomp.ranks
    )


def shrink_decomposition(
    grid: NestedGrid,
    n_ranks: int,
    model: LinearPerfModel | None = None,
    iterations: int = 2000,
    seed: int = 0,
) -> Decomposition:
    """Re-decompose the whole grid onto *n_ranks* surviving ranks.

    This is the recovery path after a rank failure: the dead rank's
    blocks must land somewhere, so the one-level-per-rank restriction is
    relaxed and the hill-climb separator optimizer (Algorithm 1) runs
    over the *global* block sequence — all levels concatenated in
    block-id order — scored by the linear kernel-time model.  The result
    is deterministic (fixed optimizer seed), uses whole blocks only
    (the distributed driver's requirement), and may give a rank blocks
    from adjacent levels, exactly like the paper's few-socket runs.

    *model* defaults to the paper's published fit, so shrinking needs no
    microbenchmark at recovery time.
    """
    blocks = sorted(grid.all_blocks(), key=lambda b: b.block_id)
    if not 1 <= n_ranks <= len(blocks):
        raise DecompositionError(
            f"cannot shrink onto {n_ranks} ranks: grid has "
            f"{len(blocks)} whole blocks"
        )
    model = model or LinearPerfModel(
        PAPER_SLOPE_US_PER_CELL, PAPER_INTERCEPT_US, 1.0
    )
    cells = [b.n_cells for b in blocks]
    seps = optimize_separators(
        cells, n_ranks, model, iterations=iterations, seed=seed
    )
    bounds = [0] + list(seps) + [len(blocks)]
    ranks = []
    for rank_id, (b0, b1) in enumerate(zip(bounds, bounds[1:])):
        items = tuple(WorkItem(b) for b in blocks[b0:b1])
        ranks.append(RankWork(rank_id, items[0].block.level, items))
    return Decomposition(grid, tuple(ranks))
