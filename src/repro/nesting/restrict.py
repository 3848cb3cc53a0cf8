"""JNZ — child-to-parent water-level restriction (3x3 averaging).

The paper's JNZSND routine (Listing 5) "sends the water levels at the
boundary cells of a child grid to its parent grid ... and reduces the
resolution by averaging the water levels in a 3x3 cell".  We implement the
same operator vectorized: the child region is reshaped to
``(pj, 3, pi, 3)`` and averaged over the two length-3 axes.

Which cells those are is fixed by the two frozen blocks, so the regions
and their buffer layout live in static tables (Listing 6's
``JNZ_BUFS_OFS``), built on a link's first step and looked up after.  On
the compiled nest a link's restriction — into the parent, or into a JNZ
buffer — is one prepared ``restrict`` call that sums each tile in NumPy's
own order (DESIGN.md §9i); the NumPy bodies below are the fallback and the
reference.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.constants import REFINEMENT_RATIO
from repro.core import loopnest
from repro.errors import NestingError
from repro.grid.block import Block
from repro.grid.staggered import NGHOST
from repro.xchg.offsets import (
    TABLE_ENTRIES,
    build_offset_table,
    pack_irregular_offsets,
)


def restriction_region(
    parent: Block,
    child: Block,
    mode: str = "boundary",
    width: int = 2,
    ratio: int = REFINEMENT_RATIO,
) -> list[tuple[int, int, int, int]]:
    """Parent-cell rectangles to restrict, as global ``(i0, j0, i1, j1)``.

    ``mode="full"`` returns the whole parent/child overlap; ``mode
    ="boundary"`` returns up to four strips of *width* parent cells along
    the child block's footprint edges (clipped to the parent block),
    non-overlapping.
    """
    fi0, fj0, fi1, fj1 = child.parent_footprint(ratio)
    i0, j0 = max(fi0, parent.gi0), max(fj0, parent.gj0)
    i1, j1 = min(fi1, parent.gi1), min(fj1, parent.gj1)
    if i0 >= i1 or j0 >= j1:
        return []
    if mode == "full":
        return [(i0, j0, i1, j1)]
    if mode != "boundary":
        raise NestingError(f"unknown restriction mode {mode!r}")

    # Strips along the child's own edges (in parent cells), clipped to the
    # overlap: bottom and top span the full overlap width; left and right
    # fill the remaining middle band.
    w = width
    regions: list[tuple[int, int, int, int]] = []
    bot_hi = min(fj0 + w, j1)
    top_lo = max(fj1 - w, j0)
    if j0 < bot_hi:
        regions.append((i0, j0, i1, min(bot_hi, j1)))
    if max(top_lo, bot_hi) < j1:
        regions.append((i0, max(top_lo, bot_hi), i1, j1))
    mid_lo = max(j0, min(bot_hi, j1))
    mid_hi = min(j1, max(top_lo, bot_hi))
    if mid_lo < mid_hi:
        left_hi = min(fi0 + w, i1)
        right_lo = max(fi1 - w, i0)
        if i0 < left_hi:
            regions.append((i0, mid_lo, left_hi, mid_hi))
        if max(right_lo, left_hi) < i1:
            regions.append((max(right_lo, left_hi), mid_lo, i1, mid_hi))
    return regions


def restriction_buffer_cells(regions: list[tuple[int, int, int, int]]) -> int:
    """Parent cells carried by one JNZ message for these regions."""
    return sum((i1 - i0) * (j1 - j0) for i0, j0, i1, j1 in regions)


@lru_cache(maxsize=TABLE_ENTRIES)
def _regions_of(parent: Block, child: Block, mode: str, width: int, ratio: int):
    return tuple(restriction_region(parent, child, mode, width, ratio))


@lru_cache(maxsize=TABLE_ENTRIES)
def _buffer_layout(block: Block, regions: tuple, scale: int, nghost: int):
    """Where *regions* sit in *block*'s padded array and in the JNZ buffer.

    Array-index rectangles ``(j0, j1, i0, i1)`` plus their
    :class:`~repro.xchg.offsets.OffsetTable`; *scale* is the refinement
    ratio on the child (sending) side and 1 on the parent side.
    """
    gj, gi = nghost - block.gj0, nghost - block.gi0
    cells = tuple(
        (gj + scale * j0, gj + scale * j1, gi + scale * i0, gi + scale * i1)
        for i0, j0, i1, j1 in regions
    )
    return cells, build_offset_table(cells, scale)


def _tiles(child: Block, regions: tuple, ratio: int, nghost: int):
    """Per region its first child cell and its nj x ni parent cells — the
    nest's tiles are 3 x 3, so None for another *ratio* — and the layout."""
    cells, table = _buffer_layout(child, regions, ratio, nghost)
    if ratio != 3:
        return None, table
    return [((j0, i0), (j1 - j0) // 3, (i1 - i0) // 3) for j0, j1, i0, i1 in cells], table


def _pack_layout(child: Block, regions: tuple, ratio: int, nghost: int):
    """``pack_restriction`` for ``loopnest.exchange``: into the buffer."""
    tiles, table = _tiles(child, regions, ratio, nghost)
    if tiles is None:
        return None, None
    return [(*tile, at) for tile, at in zip(tiles, table.offsets)], table.total


def _restrict_layout(parent: Block, child: Block, mode: str, width: int, ratio: int, nghost: int):
    """``restrict_eta`` for ``loopnest.exchange``: into the parent."""
    regions = _regions_of(parent, child, mode, width, ratio)
    tiles, table = _tiles(child, regions, ratio, nghost)
    if tiles is None:
        return None, None
    into, _ = _buffer_layout(parent, regions, 1, nghost)
    return [(*tile, (j0, i0)) for tile, (j0, _j1, i0, _i1) in zip(tiles, into)], table.total


def pack_restriction(
    child_z: np.ndarray,
    child: Block,
    regions: list[tuple[int, int, int, int]],
    ratio: int = REFINEMENT_RATIO,
    nghost: int = NGHOST,
) -> np.ndarray:
    """Sender side of JNZ: 3x3-average the child cells into a buffer.

    The buffer holds one value per parent cell, region by region in
    row-major order — the JNZ_BUFS layout of Listing 6.  On the nest this
    is the routine :func:`restrict_eta` runs, writing the buffer instead.
    """
    regions = tuple(regions)
    call = loopnest.exchange("restrict", (child_z,), _pack_layout, child, regions, ratio, nghost)
    if call:
        buf = np.empty(call.result, child_z.dtype)
        call.fn(*call.table, buf.ctypes.data)
        return buf
    cells, table = _buffer_layout(child, regions, ratio, nghost)
    return pack_irregular_offsets(child_z, cells, table, ratio)


def unpack_restriction(
    parent_z: np.ndarray,
    parent: Block,
    regions: list[tuple[int, int, int, int]],
    buf: np.ndarray,
    nghost: int = NGHOST,
    parent_h: np.ndarray | None = None,
) -> int:
    """Receiver side of JNZ: scatter averaged values into the parent.

    When *parent_h* (the parent's padded still-water depth) is given, only
    *sea* cells (h > 0) are overwritten: on land the child's 3x3-mean
    ground level generally differs from the parent cell's own ground level
    (sub-cell topography), and writing it would create phantom ponds of
    water on dry slopes.  Land cells keep the parent's own solution.
    """
    _cells, table = _buffer_layout(parent, tuple(regions), 1, nghost)
    for cells, tiles, at in table.rows:
        vals = buf[at].reshape(tiles[0], tiles[2])
        if parent_h is None:
            parent_z[cells] = vals
        else:
            np.copyto(parent_z[cells], vals, where=parent_h[cells] > 0.0)
    return table.total


def restrict_eta(
    parent_z: np.ndarray,
    child_z: np.ndarray,
    parent: Block,
    child: Block,
    mode: str = "boundary",
    width: int = 2,
    ratio: int = REFINEMENT_RATIO,
    nghost: int = NGHOST,
    parent_h: np.ndarray | None = None,
) -> int:
    """Average child water levels 3x3 into the parent (in place).

    Both arrays are padded per :mod:`repro.grid.staggered`.  Returns the
    number of parent cells written (the JNZ message volume in cells).
    Implemented as pack + unpack so the local and distributed (MPI) paths
    are numerically identical by construction — on the nest, as the one
    compiled routine :func:`pack_restriction` runs.  See
    :func:`unpack_restriction` for the *parent_h* land mask.
    """
    arrays = (child_z, parent_z) if parent_h is None else (child_z, parent_z, parent_h)
    call = loopnest.exchange(
        "restrict", arrays, _restrict_layout, parent, child, mode, width, ratio, nghost
    )
    if call:
        call.fn(*call.table)
        return call.result
    regions = _regions_of(parent, child, mode, width, ratio)
    buf = pack_restriction(child_z, child, regions, ratio, nghost)
    return unpack_restriction(parent_z, parent, regions, buf, nghost, parent_h)
