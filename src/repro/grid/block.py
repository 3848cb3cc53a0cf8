"""Rectangular grid blocks — the unit the paper's ``KK`` loop iterates over.

A :class:`Block` is a rectangular patch of one grid level.  It carries only
*geometry* (placement in the level's global index space); field arrays live
in :class:`repro.core.state.BlockState` so that performance-only workflows
(e.g. replaying the 47-million-cell Kochi model through the hardware
simulator) never allocate the data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GridError


@dataclass(frozen=True)
class Block:
    """Geometry of one rectangular block of a grid level.

    Parameters
    ----------
    block_id:
        Identifier unique within the whole nested grid.  The paper numbers
        blocks consecutively level by level; so do we.
    level:
        1-based grid-level index (1 = coarsest).
    gi0, gj0:
        Origin of the block in the level's global cell-index space
        (``gi0`` along x, ``gj0`` along y).
    nx, ny:
        Number of physical cells along x and y.
    """

    block_id: int
    level: int
    gi0: int
    gj0: int
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx <= 0 or self.ny <= 0:
            raise GridError(
                f"block {self.block_id}: size must be positive, got "
                f"nx={self.nx}, ny={self.ny}"
            )
        if self.gi0 < 0 or self.gj0 < 0:
            raise GridError(
                f"block {self.block_id}: origin must be non-negative, got "
                f"gi0={self.gi0}, gj0={self.gj0}"
            )
        if self.level < 1:
            raise GridError(f"block {self.block_id}: level must be >= 1")

    @property
    def n_cells(self) -> int:
        """Number of physical cells in the block."""
        return self.nx * self.ny

    @property
    def gi1(self) -> int:
        """One past the last cell index along x."""
        return self.gi0 + self.nx

    @property
    def gj1(self) -> int:
        """One past the last cell index along y."""
        return self.gj0 + self.ny

    def contains_cell(self, gi: int, gj: int) -> bool:
        """Whether global cell ``(gi, gj)`` of this level lies in the block."""
        return self.gi0 <= gi < self.gi1 and self.gj0 <= gj < self.gj1

    def overlaps(self, other: "Block") -> bool:
        """Whether two blocks of the same level share any cell."""
        if self.level != other.level:
            raise GridError("overlap is only defined within one level")
        return (
            self.gi0 < other.gi1
            and other.gi0 < self.gi1
            and self.gj0 < other.gj1
            and other.gj0 < self.gj1
        )

    def touches(self, other: "Block") -> bool:
        """Whether two same-level blocks share an edge (halo neighbors)."""
        if self.level != other.level:
            return False
        share_x = self.gi0 < other.gi1 and other.gi0 < self.gi1
        share_y = self.gj0 < other.gj1 and other.gj0 < self.gj1
        edge_x = self.gi1 == other.gi0 or other.gi1 == self.gi0
        edge_y = self.gj1 == other.gj0 or other.gj1 == self.gj0
        return (share_x and edge_y) or (share_y and edge_x)

    def parent_footprint(self, ratio: int) -> tuple[int, int, int, int]:
        """Cell range ``(pi0, pj0, pi1, pj1)`` this block covers on its parent.

        Requires the block to be aligned to the refinement ratio; raises
        :class:`GridError` otherwise (inclusive nesting demands alignment).
        """
        if (
            self.gi0 % ratio
            or self.gj0 % ratio
            or self.nx % ratio
            or self.ny % ratio
        ):
            raise GridError(
                f"block {self.block_id} is not aligned to refinement "
                f"ratio {ratio}: origin=({self.gi0},{self.gj0}) "
                f"size=({self.nx},{self.ny})"
            )
        return (
            self.gi0 // ratio,
            self.gj0 // ratio,
            self.gi1 // ratio,
            self.gj1 // ratio,
        )
