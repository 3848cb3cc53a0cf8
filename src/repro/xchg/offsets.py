"""Pre-computed offset tables for irregular boundary sets (Listings 5-6).

The inter-grid exchange (JNZSND and friends) packs a *set* of boundary
regions of different sizes into one buffer per receiver.  The original code
tracks the position with a running counter (``ICNT_WK``) — a loop-carried
dependence.  Because "the grid organization and domain decomposition are
fixed during runtime" (Section IV-C2), the paper pre-computes a table of
per-boundary offsets (``JNZ_BUFS_OFS``) once, after which all boundaries
can be packed in parallel.

:class:`OffsetTable` is that table.  :func:`pack_irregular_naive` and
:func:`pack_irregular_offsets` are the before/after implementations of the
3x3-averaging pack of Listing 5/6; they produce identical buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CommunicationError

#: Entries each static exchange table (seams, JNZ, JNQ) keeps, least recently
#: used out first.  The decomposition is fixed during a run, so a grid's tables
#: are built on its first step and only read after; the bound is what keeps a
#: long-lived process that builds grid after grid from growing.
TABLE_ENTRIES = 1024

#: One boundary region to pack: ``(j0, j1, i0, i1)`` array index ranges of
#: the *child* cells (row-major, end-exclusive).  For JNZ packs, the
#: region spans whole 3x3 tiles and one output element is emitted per tile.
IrregularRegion = tuple[int, int, int, int]


@dataclass(frozen=True)
class OffsetTable:
    """Buffer offsets of each boundary region, plus the total length.

    ``rows`` is what a pack or unpack walks: per region its field slices,
    the ``(nj, ratio, ni, ratio)`` shape that views it as tiles, and its
    slice of the buffer.
    """

    offsets: tuple[int, ...]
    counts: tuple[int, ...]
    total: int
    rows: tuple

    def offset_of(self, index: int) -> int:
        return self.offsets[index]


def _tile_counts(regions: list[IrregularRegion], ratio: int) -> list[int]:
    counts = []
    for j0, j1, i0, i1 in regions:
        if (j1 - j0) % ratio or (i1 - i0) % ratio:
            raise CommunicationError(
                f"region ({j0},{j1},{i0},{i1}) is not a whole number of "
                f"{ratio}x{ratio} tiles"
            )
        counts.append(((j1 - j0) // ratio) * ((i1 - i0) // ratio))
    return counts


def build_offset_table(
    regions: list[IrregularRegion], ratio: int = 3
) -> OffsetTable:
    """Prefix-sum offsets over the per-region averaged-element counts."""
    counts = _tile_counts(regions, ratio)
    offsets = []
    acc = 0
    for c in counts:
        offsets.append(acc)
        acc += c
    rows = tuple(
        (
            (slice(j0, j1), slice(i0, i1)),
            ((j1 - j0) // ratio, ratio, (i1 - i0) // ratio, ratio),
            slice(off, off + c),
        )
        for (j0, j1, i0, i1), off, c in zip(regions, offsets, counts)
    )
    return OffsetTable(tuple(offsets), tuple(counts), acc, rows)


def pack_irregular_naive(
    field: np.ndarray, regions: list[IrregularRegion], ratio: int = 3
) -> np.ndarray:
    """Listing-5 pack: running counter, scalar 3x3 averages, sequential."""
    counts = _tile_counts(regions, ratio)
    buf = np.empty(sum(counts), dtype=field.dtype)
    icnt = 0
    for j0, j1, i0, i1 in regions:
        for jt in range(j0, j1, ratio):
            for it in range(i0, i1, ratio):
                s = 0.0
                for j in range(jt, jt + ratio):
                    for i in range(it, it + ratio):
                        s += field[j, i]
                buf[icnt] = s / (ratio * ratio)
                icnt += 1
    return buf


def pack_irregular_offsets(
    field: np.ndarray,
    regions: list[IrregularRegion],
    table: OffsetTable | None = None,
    ratio: int = 3,
) -> np.ndarray:
    """Listing-6 pack: every region written independently at its offset.

    The one averaging pack: JNZ (:func:`repro.nesting.restrict.pack_restriction`)
    calls it with regions and table out of the static exchange tables.
    ``add.reduce`` then ``true_divide`` by an ``intp`` count is what
    ``mean`` runs, so the values are those of ``sub.mean(axis=(1, 3))``.
    """
    if table is None:
        table = build_offset_table(regions, ratio)
    buf = np.empty(table.total, dtype=field.dtype)
    tile = np.intp(ratio * ratio)
    for cells, tiles, at in table.rows:
        np.true_divide(
            np.add.reduce(field[cells].reshape(tiles), axis=(1, 3)), tile,
            out=buf[at].reshape(tiles[0], tiles[2]), casting="unsafe",
        )
    return buf


def unpack_irregular_offsets(
    buf: np.ndarray,
    field: np.ndarray,
    regions: list[IrregularRegion],
    table: OffsetTable | None = None,
    ratio: int = 1,
) -> None:
    """Scatter a packed buffer back into *field* (receiver-side JNZ_RCVWAIT).

    With ``ratio=1`` each buffer element maps to one cell (the parent-side
    receive of already-averaged values).
    """
    if table is None:
        table = build_offset_table(regions, ratio)
    for cells, tiles, at in table.rows:
        vals = buf[at].reshape(tiles[0], tiles[2])
        field[cells] = vals.repeat(ratio, 0).repeat(ratio, 1)
