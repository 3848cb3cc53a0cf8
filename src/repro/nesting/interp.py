"""JNQ — parent-to-child discharge-flux interpolation.

After the momentum update, the parent's fluxes provide the child's boundary
condition: each parent face value is copied onto the three child faces it
covers (discharge flux is per unit width, so a constant copy conserves the
volume flux through the interface exactly).

Only the component *normal* to each child edge is imposed (W/E edges: M;
S/N edges: N); tangential ghost data comes from the zero-gradient fill.

Which parent faces feed which child faces is fixed by the two frozen
blocks and the child's boundary segments, so each link's source index,
target index and buffer slice live in a static table (Listing 6), built
on the link's first step and looked up after.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.constants import REFINEMENT_RATIO
from repro.core import loopnest
from repro.errors import NestingError
from repro.grid.block import Block
from repro.grid.staggered import NGHOST
from repro.xchg.offsets import TABLE_ENTRIES


def _subtract_intervals(
    span: tuple[int, int], covered: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Parts of *span* not covered by any interval in *covered*."""
    out = [span]
    for c0, c1 in sorted(covered):
        nxt: list[tuple[int, int]] = []
        for s0, s1 in out:
            if c1 <= s0 or c0 >= s1:
                nxt.append((s0, s1))
                continue
            if s0 < c0:
                nxt.append((s0, c0))
            if c1 < s1:
                nxt.append((c1, s1))
        out = nxt
    return out


def child_boundary_segments(
    level_blocks: list[Block], child: Block
) -> dict[str, list[tuple[int, int]]]:
    """Per-side sub-ranges of a block's edges *not* shared with a neighbor.

    Ranges are global child-level cell indices along the edge.  These are
    the segments that must be fed by the parent grid (or by the outer
    boundary condition on level 1); the remaining segments are halo seams.
    """
    sides: dict[str, list[tuple[int, int]]] = {}
    for side in ("W", "E", "S", "N"):
        if side in ("W", "E"):
            span = (child.gj0, child.gj1)
            edge_x = child.gi0 if side == "W" else child.gi1
            covered = [
                (max(child.gj0, b.gj0), min(child.gj1, b.gj1))
                for b in level_blocks
                if b.block_id != child.block_id
                and (b.gi1 if side == "W" else b.gi0) == edge_x
                and max(child.gj0, b.gj0) < min(child.gj1, b.gj1)
            ]
        else:
            span = (child.gi0, child.gi1)
            edge_y = child.gj0 if side == "S" else child.gj1
            covered = [
                (max(child.gi0, b.gi0), min(child.gi1, b.gi1))
                for b in level_blocks
                if b.block_id != child.block_id
                and (b.gj1 if side == "S" else b.gj0) == edge_y
                and max(child.gi0, b.gi0) < min(child.gi1, b.gi1)
            ]
        sides[side] = _subtract_intervals(span, covered)
    return sides


def _edge_geometry(
    parent: Block, child: Block, side: str, seg: tuple[int, int], ratio: int
):
    """Resolve one segment's parent source range and child target range.

    Returns ``None`` when this parent block does not own the face, else
    ``(plo, phi)`` parent cell range along the edge plus bookkeeping.
    """
    lo, hi = seg
    if lo % ratio or hi % ratio:
        raise NestingError(
            f"boundary segment ({lo}, {hi}) is not aligned to ratio {ratio}"
        )
    if side in ("W", "E"):
        face_x = child.gi0 if side == "W" else child.gi1
        pface = face_x // ratio
        if not (parent.gi0 <= pface <= parent.gi1):
            return None
        plo = max(lo // ratio, parent.gj0)
        phi = min(hi // ratio, parent.gj1)
        if plo >= phi:
            return None
        return (pface, plo, phi, face_x)
    face_y = child.gj0 if side == "S" else child.gj1
    pface = face_y // ratio
    if not (parent.gj0 <= pface <= parent.gj1):
        return None
    plo = max(lo // ratio, parent.gi0)
    phi = min(hi // ratio, parent.gi1)
    if plo >= phi:
        return None
    return (pface, plo, phi, face_y)


@lru_cache(maxsize=TABLE_ENTRIES)
def _build_flux_table(
    parent: Block, child: Block, segments: tuple, ratio: int, nghost: int
):
    rows = []
    total = 0
    for side, segs in zip("WESN", segments):
        is_m = side in "WE"  # M through W/E edges, which run along y
        along, across = ("gj0", "gi0") if is_m else ("gi0", "gj0")
        p0, c0 = nghost - getattr(parent, along), nghost - getattr(child, along)
        for seg in segs:
            geom = _edge_geometry(parent, child, side, seg, ratio)
            if geom is None:
                continue
            pface, plo, phi, edge = geom
            src = (slice(p0 + plo, p0 + phi), nghost + pface - getattr(parent, across))
            dst = (
                slice(c0 + ratio * plo, c0 + ratio * phi),
                nghost + edge - getattr(child, across),
            )
            if not is_m:
                src, dst = src[::-1], dst[::-1]
            rows.append((is_m, src, dst, slice(total, total + phi - plo)))
            total += phi - plo
    return tuple(rows), total


def _frozen(segments) -> tuple:
    """*segments*, a dict of lists, as the key of what it holds."""
    return tuple(map(tuple, map(segments.get, "WESN", ((),) * 4)))


def _flux_table(parent, child, segments, ratio, nghost):
    """One link's JNQ rows ``(is_m, parent index, child index, buffer slice)``,
    side by side, seg by seg, and the buffer length.  *segments* is a dict of
    lists, so the static table is keyed on what it holds."""
    return _build_flux_table(parent, child, _frozen(segments), ratio, nghost)


def _flux_moves(parent, child, segments: tuple, ratio, nghost):
    """``interpolate_fluxes`` for ``loopnest.exchange``: its rows as moves on
    (parent M, parent N, child M, child N)."""
    rows, total = _build_flux_table(parent, child, segments, ratio, nghost)
    return [
        loopnest.repeat(2 if is_m else 3, dst, 0 if is_m else 1, src, ratio)
        for is_m, src, dst, _at in rows
    ], ratio * total


def pack_fluxes(
    parent_m: np.ndarray,
    parent_n: np.ndarray,
    parent: Block,
    child: Block,
    segments: dict[str, list[tuple[int, int]]],
    ratio: int = REFINEMENT_RATIO,
    nghost: int = NGHOST,
) -> np.ndarray:
    """Sender side of JNQ: parent face values, side by side, seg by seg."""
    rows, total = _flux_table(parent, child, segments, ratio, nghost)
    buf = np.empty(total, dtype=parent_m.dtype)
    for is_m, src, _dst, at in rows:
        buf[at] = (parent_m if is_m else parent_n)[src]
    return buf


def unpack_fluxes(
    child_m: np.ndarray,
    child_n: np.ndarray,
    parent: Block,
    child: Block,
    segments: dict[str, list[tuple[int, int]]],
    buf: np.ndarray,
    ratio: int = REFINEMENT_RATIO,
    nghost: int = NGHOST,
) -> int:
    """Receiver side of JNQ: copy each parent value onto 3 child faces."""
    rows, total = _flux_table(parent, child, segments, ratio, nghost)
    for is_m, _src, dst, at in rows:
        (child_m if is_m else child_n)[dst] = buf[at].repeat(ratio)
    return ratio * total


def interpolate_fluxes(
    parent_m: np.ndarray,
    parent_n: np.ndarray,
    child_m: np.ndarray,
    child_n: np.ndarray,
    parent: Block,
    child: Block,
    segments: dict[str, list[tuple[int, int]]],
    ratio: int = REFINEMENT_RATIO,
    nghost: int = NGHOST,
) -> int:
    """Impose parent fluxes on the child's boundary faces (in place).

    *segments* comes from :func:`child_boundary_segments`.  Returns the
    number of child faces written (the JNQ message volume).  The same
    table rows as pack + unpack, without the buffer in between, so the
    local and distributed (MPI) paths are numerically identical by
    construction.  On the compiled nest those rows are one prepared
    ``moves`` call (DESIGN.md §9i).
    """
    key = _frozen(segments)
    call = loopnest.exchange(
        "moves", (parent_m, parent_n, child_m, child_n), _flux_moves,
        parent, child, key, ratio, nghost,
    )
    if call:
        call.fn(*call.table)
        return call.result
    rows, total = _build_flux_table(parent, child, key, ratio, nghost)
    for is_m, src, dst, _at in rows:
        values = (parent_m if is_m else parent_n)[src]
        (child_m if is_m else child_n)[dst] = values.repeat(ratio)
    return ratio * total
