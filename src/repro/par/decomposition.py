"""Static domain decomposition (Section II-B, IV-D).

Constraints inherited from the original RTi code:

* one or more ranks are assigned to each grid level, but a rank never
  spans levels ("the limitation of the original code that does not allow
  assigning multiple grid levels to a single rank");
* each rank is assigned *consecutive* blocks of its level;
* a block can be split across ranks, but only one-dimensionally (row
  strips), to keep the vectorized inner loop long.

Two decomposition policies are provided:

* :func:`equal_cell_assignment` — the original algorithm, which equalizes
  the number of cells per rank;
* :func:`decomposition_from_separators` — assignment from explicit
  separator positions (Fig. 7), the representation the load-balance
  optimizer of :mod:`repro.balance` manipulates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DecompositionError
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid


@dataclass(frozen=True)
class WorkItem:
    """A block, or a row strip of a block, assigned to one rank."""

    block: Block
    row0: int = 0
    row1: int = -1  # -1 means "all rows"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "row1", self.block.ny if self.row1 < 0 else self.row1
        )
        if not 0 <= self.row0 < self.row1 <= self.block.ny:
            raise DecompositionError(
                f"bad row range [{self.row0}, {self.row1}) for block "
                f"{self.block.block_id} with ny={self.block.ny}"
            )

    @property
    def n_rows(self) -> int:
        return self.row1 - self.row0

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.block.nx

    @property
    def is_whole_block(self) -> bool:
        return self.row0 == 0 and self.row1 == self.block.ny


@dataclass(frozen=True)
class RankWork:
    """Everything one rank computes."""

    rank: int
    level: int
    items: tuple[WorkItem, ...]

    @property
    def n_cells(self) -> int:
        return sum(it.n_cells for it in self.items)

    @property
    def n_kernels(self) -> int:
        """Kernel launches per bottleneck routine: one per work item."""
        return len(self.items)

    @property
    def n_blocks(self) -> int:
        return len({it.block.block_id for it in self.items})


@dataclass(frozen=True)
class Decomposition:
    """The full static decomposition of a nested grid."""

    grid: NestedGrid
    ranks: tuple[RankWork, ...]

    def __post_init__(self) -> None:
        for expected, rw in enumerate(self.ranks):
            if rw.rank != expected:
                raise DecompositionError("ranks must be numbered 0..n-1")
        # Every cell of every block must be covered exactly once.
        per_block: dict[int, list[tuple[int, int]]] = {}
        for rw in self.ranks:
            for it in rw.items:
                per_block.setdefault(it.block.block_id, []).append(
                    (it.row0, it.row1)
                )
        for blk in self.grid.all_blocks():
            ranges = sorted(per_block.get(blk.block_id, []))
            cursor = 0
            for r0, r1 in ranges:
                if r0 != cursor:
                    raise DecompositionError(
                        f"block {blk.block_id}: rows [{cursor}, {r0}) "
                        f"unassigned or doubly assigned"
                    )
                cursor = r1
            if cursor != blk.ny:
                raise DecompositionError(
                    f"block {blk.block_id}: rows [{cursor}, {blk.ny}) "
                    f"unassigned"
                )

    @property
    def n_ranks(self) -> int:
        return len(self.ranks)

    def owner_map(self) -> dict[int, int]:
        """Map block_id -> owning rank (whole-block decompositions only).

        This is the ownership view the distributed driver executes from;
        row-split decompositions have no single owner per block and are
        rejected (they are a performance-model construct).
        """
        owner: dict[int, int] = {}
        for rw in self.ranks:
            for it in rw.items:
                if not it.is_whole_block:
                    raise DecompositionError(
                        "owner_map requires a whole-block decomposition "
                        f"(block {it.block.block_id} is row-split)"
                    )
                owner[it.block.block_id] = rw.rank
        return owner

    def ranks_of_level(self, level: int) -> list[RankWork]:
        return [rw for rw in self.ranks if rw.level == level]

    def cells_per_rank(self) -> list[int]:
        return [rw.n_cells for rw in self.ranks]

    def blocks_per_rank(self) -> list[int]:
        return [rw.n_blocks for rw in self.ranks]


def ranks_per_level(grid: NestedGrid, total_ranks: int) -> list[int]:
    """Allocate ranks to levels proportionally to cells, min 1 per level.

    Largest-remainder apportionment.  For the Kochi model at 16 ranks this
    yields [1, 1, 1, 3, 10] — exactly the paper's configuration (ranks 0-2
    on levels 1-3, Fig. 4).
    """
    n_levels = grid.n_levels
    if total_ranks < n_levels:
        raise DecompositionError(
            f"need at least one rank per level: {total_ranks} < {n_levels}"
        )
    alloc = [0] * n_levels
    # Waterfilling: any level whose proportional quota is <= 1 rank is
    # pinned to exactly one rank, and the rest re-apportioned — this is
    # what pins ranks 0-2 to levels 1-3 in the paper's 16-rank setup.
    pending = list(range(n_levels))
    ranks_left = total_ranks
    while True:
        cells_left = sum(grid.levels[i].n_cells for i in pending)
        pinned = [
            i
            for i in pending
            if ranks_left * grid.levels[i].n_cells <= cells_left
        ]
        if not pinned or len(pending) <= 1:
            break
        for i in pinned:
            alloc[i] = 1
            pending.remove(i)
            ranks_left -= 1
    # Largest-remainder apportionment for the remaining levels (min 1).
    cells_left = sum(grid.levels[i].n_cells for i in pending)
    quotas = {
        i: ranks_left * grid.levels[i].n_cells / cells_left for i in pending
    }
    for i in pending:
        alloc[i] = max(1, int(quotas[i]))
    short = total_ranks - sum(alloc)
    by_remainder = sorted(
        pending, key=lambda i: quotas[i] - int(quotas[i]), reverse=True
    )
    for i in by_remainder[:short]:
        alloc[i] += 1
    if sum(alloc) != total_ranks:
        raise DecompositionError(
            f"apportionment failed: {alloc} sums to {sum(alloc)}, "
            f"expected {total_ranks}"
        )
    return alloc


def _split_blocks_evenly(
    blocks: list[Block], n_ranks: int
) -> list[list[WorkItem]]:
    """Cell-equalizing split of a block sequence, row-splitting as needed."""
    total = sum(b.n_cells for b in blocks)
    out: list[list[WorkItem]] = [[] for _ in range(n_ranks)]
    # Walk blocks row by row conceptually: assign until the rank's quota
    # is filled, splitting within a block at row granularity.
    rank = 0
    assigned = 0

    def quota(r: int) -> float:
        # Cumulative ideal boundary after rank r.
        return total * (r + 1) / n_ranks

    for blk in sorted(blocks, key=lambda b: b.block_id):
        row = 0
        while row < blk.ny:
            remaining_rows = blk.ny - row
            cells_to_quota = quota(rank) - assigned
            rows_needed = int(-(-cells_to_quota // blk.nx))  # ceil
            if rank == n_ranks - 1 or rows_needed >= remaining_rows:
                take = remaining_rows
            else:
                take = max(1, rows_needed)
            out[rank].append(WorkItem(blk, row, row + take))
            row += take
            assigned += take * blk.nx
            while rank < n_ranks - 1 and assigned >= quota(rank) - 0.5:
                rank += 1
    for r, items in enumerate(out):
        if not items:
            raise DecompositionError(
                f"cell-equalizing split starved rank {r} "
                f"({len(blocks)} blocks over {n_ranks} ranks)"
            )
    return out


def _assign_whole_blocks(
    blocks: list[Block], n_ranks: int
) -> list[list[WorkItem]]:
    """Cell-equalizing greedy assignment at whole-block granularity.

    This is the representation the separator optimizer manipulates
    (Fig. 7): consecutive whole blocks per rank, cells as equal as the
    block granularity allows.
    """
    blocks = sorted(blocks, key=lambda b: b.block_id)
    if n_ranks > len(blocks):
        raise DecompositionError(
            f"cannot give {n_ranks} ranks whole blocks out of {len(blocks)}"
        )
    total = sum(b.n_cells for b in blocks)
    out: list[list[WorkItem]] = [[] for _ in range(n_ranks)]
    rank = 0
    assigned = 0
    for pos, blk in enumerate(blocks):
        blocks_left = len(blocks) - pos
        ranks_left = n_ranks - rank
        # Close the current rank when its quota is met, unless the
        # remaining blocks are needed one-per-rank downstream.
        quota = total * (rank + 1) / n_ranks
        if (
            out[rank]
            and assigned + blk.n_cells / 2 >= quota
            and ranks_left > 1
        ) or blocks_left == ranks_left - 1:
            rank += 1
        out[rank].append(WorkItem(blk))
        assigned += blk.n_cells
    return out


def equal_cell_assignment(
    grid: NestedGrid, total_ranks: int, split_blocks: bool = True
) -> Decomposition:
    """The original decomposition: equalize cells per rank within a level.

    ``split_blocks=True`` allows 1-D row splits inside a block (used when
    a level has fewer blocks than ranks, and for near-perfect balance);
    ``split_blocks=False`` keeps whole blocks per rank — the
    block-granular baseline that the separator optimizer (Algorithm 1)
    improves on.

    When there are fewer ranks than grid levels (the paper's 4-socket
    runs), the one-level-per-rank restriction cannot hold; blocks of all
    levels are then treated as one consecutive sequence — row-split for
    balance when ``split_blocks``, whole blocks otherwise — so a rank may
    span adjacent levels.
    """
    ranks: list[RankWork] = []
    rank_id = 0
    if total_ranks >= grid.n_levels:
        alloc = ranks_per_level(grid, total_ranks)
        for lvl, n in zip(grid.levels, alloc):
            if split_blocks or n > lvl.n_blocks:
                groups = _split_blocks_evenly(lvl.blocks, n)
            else:
                groups = _assign_whole_blocks(lvl.blocks, n)
            for items in groups:
                ranks.append(RankWork(rank_id, lvl.index, tuple(items)))
                rank_id += 1
    else:
        if split_blocks:
            groups = _split_blocks_evenly(grid.all_blocks(), total_ranks)
        else:
            groups = _assign_whole_blocks(
                sorted(grid.all_blocks(), key=lambda b: b.block_id),
                total_ranks,
            )
        for items in groups:
            ranks.append(
                RankWork(rank_id, items[0].block.level, tuple(items))
            )
            rank_id += 1
    return Decomposition(grid, tuple(ranks))


def decomposition_from_separators(
    grid: NestedGrid, separators: dict[int, list[int]]
) -> Decomposition:
    """Build a decomposition from per-level separator positions (Fig. 7).

    ``separators[level]`` is a sorted list of block-sequence positions;
    rank *k* of that level owns blocks ``[sep[k-1], sep[k])`` (with
    implicit 0 and n_blocks sentinels).  Blocks are never row-split in
    this representation — matching the optimizer, which moves separators
    at block granularity.
    """
    ranks: list[RankWork] = []
    rank_id = 0
    for lvl in grid.levels:
        seps = separators.get(lvl.index, [])
        blocks = sorted(lvl.blocks, key=lambda b: b.block_id)
        bounds = [0] + list(seps) + [len(blocks)]
        if bounds != sorted(bounds):
            raise DecompositionError(
                f"level {lvl.index}: separators must be sorted, got {seps}"
            )
        if any(b0 >= b1 for b0, b1 in zip(bounds, bounds[1:])):
            raise DecompositionError(
                f"level {lvl.index}: separators {seps} create an empty rank"
            )
        for b0, b1 in zip(bounds, bounds[1:]):
            items = tuple(WorkItem(b) for b in blocks[b0:b1])
            ranks.append(RankWork(rank_id, lvl.index, items))
            rank_id += 1
    return Decomposition(grid, tuple(ranks))


def build_decomposition(
    grid: NestedGrid, total_ranks: int, policy: str = "equal_cells"
) -> Decomposition:
    """Convenience dispatcher for the decomposition policies."""
    if policy == "equal_cells":
        return equal_cell_assignment(grid, total_ranks)
    raise DecompositionError(f"unknown decomposition policy {policy!r}")
