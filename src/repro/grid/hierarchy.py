"""The nested-grid hierarchy with 3:1 inclusive-nesting validation."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import REFINEMENT_RATIO
from repro.errors import GridError, NestingError
from repro.grid.block import Block
from repro.grid.level import GridLevel


@dataclass
class NestedGrid:
    """A validated hierarchy of grid levels.

    Invariants enforced at construction (Section II-A of the paper):

    * level indices are consecutive starting at 1;
    * the refinement ratio between consecutive levels is exactly
      ``ratio`` (3 by default);
    * nesting is *inclusive*: every child block, when mapped onto the
      parent level's cell space, is fully covered by parent blocks;
    * child blocks are aligned to parent cell boundaries.
    """

    levels: list[GridLevel]
    ratio: int = REFINEMENT_RATIO

    def __post_init__(self) -> None:
        if not self.levels:
            raise GridError("a nested grid needs at least one level")
        if self.ratio < 2:
            raise GridError(f"refinement ratio must be >= 2, got {self.ratio}")
        for pos, lvl in enumerate(self.levels, start=1):
            if lvl.index != pos:
                raise GridError(
                    f"level indices must be consecutive from 1; position "
                    f"{pos} holds level {lvl.index}"
                )
        for parent, child in zip(self.levels, self.levels[1:]):
            if not math.isclose(parent.dx, child.dx * self.ratio, rel_tol=1e-9):
                raise NestingError(
                    f"levels {parent.index}->{child.index}: dx ratio is "
                    f"{parent.dx / child.dx:.6g}, expected {self.ratio}"
                )
            for blk in child.blocks:
                try:
                    pi0, pj0, pi1, pj1 = blk.parent_footprint(self.ratio)
                except GridError as exc:
                    raise NestingError(str(exc)) from exc
                if not parent.covers_range(pi0, pj0, pi1, pj1):
                    raise NestingError(
                        f"child block {blk.block_id} (level {child.index}) "
                        f"is not fully enclosed by level {parent.index} "
                        f"blocks: parent footprint "
                        f"({pi0},{pj0})-({pi1},{pj1})"
                    )
        seen: set[int] = set()
        for lvl in self.levels:
            for blk in lvl.blocks:
                if blk.block_id in seen:
                    raise GridError(
                        f"block id {blk.block_id} reused across levels"
                    )
                seen.add(blk.block_id)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def n_blocks(self) -> int:
        return sum(lvl.n_blocks for lvl in self.levels)

    @property
    def n_cells(self) -> int:
        return sum(lvl.n_cells for lvl in self.levels)

    def level(self, index: int) -> GridLevel:
        """Level by its 1-based index."""
        if not 1 <= index <= len(self.levels):
            raise GridError(f"no level {index} (have 1..{len(self.levels)})")
        return self.levels[index - 1]

    def all_blocks(self) -> list[Block]:
        """Every block, ordered level by level then by block id."""
        out: list[Block] = []
        for lvl in self.levels:
            out.extend(sorted(lvl.blocks, key=lambda b: b.block_id))
        return out

    def block(self, block_id: int) -> Block:
        for lvl in self.levels:
            for blk in lvl.blocks:
                if blk.block_id == block_id:
                    return blk
        raise GridError(f"no block {block_id} in the hierarchy")

    def parent_blocks_of(self, child: Block) -> list[Block]:
        """Parent-level blocks overlapping a child block's footprint.

        A child block can have multiple parent blocks (the paper's JNZSND
        routine iterates over exactly this relation).
        """
        if child.level == 1:
            return []
        parent_level = self.level(child.level - 1)
        pi0, pj0, pi1, pj1 = child.parent_footprint(self.ratio)
        out = []
        for blk in parent_level.blocks:
            if blk.gi0 < pi1 and pi0 < blk.gi1 and blk.gj0 < pj1 and pj0 < blk.gj1:
                out.append(blk)
        return out

    def summary(self) -> str:
        """Human-readable per-level summary matching Table I's columns."""
        lines = [f"{'Level':>5}  {'dx':>8}  {'#blocks':>8}  {'#cells':>12}"]
        for lvl in self.levels:
            lines.append(
                f"{lvl.index:>5}  {lvl.dx:>8.6g}  {lvl.n_blocks:>8}  "
                f"{lvl.n_cells:>12,}"
            )
        lines.append(
            f"{'Total':>5}  {'':>8}  {self.n_blocks:>8}  {self.n_cells:>12,}"
        )
        return "\n".join(lines)
