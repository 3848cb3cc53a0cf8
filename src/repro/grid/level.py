"""Grid levels: all blocks sharing one spatial resolution."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GridError
from repro.grid.block import Block


@dataclass
class GridLevel:
    """One resolution level of the nested grid.

    Parameters
    ----------
    index:
        1-based level number; 1 is the coarsest.
    dx:
        Cell size [m].  Uniform and identical in x and y (Cartesian
        TUNAMI-N2).
    blocks:
        Blocks making up the level.  Block ids must be unique and blocks
        must not overlap.
    """

    index: int
    dx: float
    blocks: list[Block] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.index < 1:
            raise GridError(f"level index must be >= 1, got {self.index}")
        if self.dx <= 0:
            raise GridError(f"dx must be positive, got {self.dx}")
        seen: set[int] = set()
        for blk in self.blocks:
            if blk.level != self.index:
                raise GridError(
                    f"block {blk.block_id} claims level {blk.level} but was "
                    f"placed in level {self.index}"
                )
            if blk.block_id in seen:
                raise GridError(f"duplicate block id {blk.block_id}")
            seen.add(blk.block_id)
        for a_pos, a in enumerate(self.blocks):
            for b in self.blocks[a_pos + 1 :]:
                if a.overlaps(b):
                    raise GridError(
                        f"blocks {a.block_id} and {b.block_id} overlap in "
                        f"level {self.index}"
                    )

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_cells(self) -> int:
        """Total number of physical cells over all blocks of the level."""
        return sum(b.n_cells for b in self.blocks)

    def covering_block(self, gi: int, gj: int) -> Block | None:
        """The block containing global cell ``(gi, gj)``, or ``None``."""
        for blk in self.blocks:
            if blk.contains_cell(gi, gj):
                return blk
        return None

    def covers_range(self, gi0: int, gj0: int, gi1: int, gj1: int) -> bool:
        """Whether the union of blocks covers every cell of a rectangle.

        Used by the nesting validator: a child block's parent footprint must
        be fully covered by parent-level blocks (inclusive nesting).
        Rectangles are small in practice (block counts are tens), so a
        sweep over uncovered sub-rectangles is cheap and exact.
        """
        pending = [(gi0, gj0, gi1, gj1)]
        while pending:
            x0, y0, x1, y1 = pending.pop()
            if x0 >= x1 or y0 >= y1:
                continue
            hit = None
            for blk in self.blocks:
                if blk.gi0 < x1 and x0 < blk.gi1 and blk.gj0 < y1 and y0 < blk.gj1:
                    hit = blk
                    break
            if hit is None:
                return False
            # Clip the covered part out and recurse on up to 4 remainders.
            cx0, cy0 = max(x0, hit.gi0), max(y0, hit.gj0)
            cx1, cy1 = min(x1, hit.gi1), min(y1, hit.gj1)
            pending.extend(
                [
                    (x0, y0, x1, cy0),  # below
                    (x0, cy1, x1, y1),  # above
                    (x0, cy0, cx0, cy1),  # left
                    (cx1, cy0, x1, cy1),  # right
                ]
            )
        return True

    def neighbor_pairs(self) -> list[tuple[Block, Block]]:
        """Pairs of blocks sharing an edge (need intra-level halo exchange)."""
        pairs: list[tuple[Block, Block]] = []
        for a_pos, a in enumerate(self.blocks):
            for b in self.blocks[a_pos + 1 :]:
                if a.touches(b):
                    pairs.append((a, b))
        return pairs
