"""Frozen reference exchange operators — NEVER OPTIMISE.

Verbatim copies of the seam, JNZ and JNQ operators as they stood when
every step re-derived the index geometry: ``seam_copy_specs`` /
``exchange_halo`` (PTP_Z, PTP_MN), ``restriction_region`` /
``pack_restriction`` / ``unpack_restriction`` / ``restrict_eta`` (JNZ),
``pack_fluxes`` / ``unpack_fluxes`` / ``interpolate_fluxes`` (JNQ) and
the Listing-6 ``pack_irregular_offsets``.  They rebuild every slice on
every call and route the in-process JNZ/JNQ through ``pack ->
np.concatenate -> unpack`` with ``mean``/``where``/``repeat``
temporaries, which is what makes them easy to read and slow;
``tests/test_nesting_bitwise.py`` requires the shipped table-driven
operators to reproduce them bit for bit.  Do not tidy, cache, or "fix"
anything here: a change to this file changes what the differential test
proves.

One exception, made in both places at once (ISSUE 20): this copy carried
the shipped ``restriction_region(mode="boundary")``'s bug — the middle
band was not clipped to a parent thinner than the child's footprint, so it
could reach below or above the parent — and carries the same two-line fix
(``mid_lo``/``mid_hi``).  Grids whose parents cover the footprint's top
and bottom strips, mini-Kochi among them, get the tables they always got.
"""

from __future__ import annotations

import numpy as np

from repro.constants import REFINEMENT_RATIO
from repro.errors import CommunicationError, NestingError
from repro.grid.block import Block
from repro.grid.staggered import NGHOST
from repro.xchg.offsets import OffsetTable, build_offset_table
from repro.xchg.specs import CopySpec

# ---------------------------------------------------------------------------
# Seams (xchg/specs.py, xchg/halo.py)
# ---------------------------------------------------------------------------


def _vertical_specs(west: Block, east: Block, g: int) -> list[CopySpec]:
    lo = max(west.gj0, east.gj0) - g
    hi = min(west.gj1, east.gj1) + g
    rw = slice(g + lo - west.gj0, g + hi - west.gj0)
    re = slice(g + lo - east.gj0, g + hi - east.gj0)
    nxw = west.nx
    specs = [
        # z: cell-centered columns.
        CopySpec("z", west.block_id, (rw, slice(nxw, nxw + g)),
                 east.block_id, (re, slice(0, g))),
        CopySpec("z", east.block_id, (re, slice(g, 2 * g)),
                 west.block_id, (rw, slice(g + nxw, g + nxw + g))),
        # m: faces strictly left/right of the shared face.
        CopySpec("m", west.block_id, (rw, slice(nxw, nxw + g)),
                 east.block_id, (re, slice(0, g))),
        CopySpec("m", east.block_id, (re, slice(g + 1, 2 * g + 1)),
                 west.block_id, (rw, slice(g + nxw + 1, g + nxw + 1 + g))),
    ]
    # n: one extra face row.
    rwf = slice(rw.start, rw.stop + 1)
    ref = slice(re.start, re.stop + 1)
    specs += [
        CopySpec("n", west.block_id, (rwf, slice(nxw, nxw + g)),
                 east.block_id, (ref, slice(0, g))),
        CopySpec("n", east.block_id, (ref, slice(g, 2 * g)),
                 west.block_id, (rwf, slice(g + nxw, g + nxw + g))),
    ]
    return specs


def _horizontal_specs(south: Block, north: Block, g: int) -> list[CopySpec]:
    lo = max(south.gi0, north.gi0) - g
    hi = min(south.gi1, north.gi1) + g
    cs = slice(g + lo - south.gi0, g + hi - south.gi0)
    cn = slice(g + lo - north.gi0, g + hi - north.gi0)
    nys = south.ny
    specs = [
        CopySpec("z", south.block_id, (slice(g + nys - g, g + nys), cs),
                 north.block_id, (slice(0, g), cn)),
        CopySpec("z", north.block_id, (slice(g, 2 * g), cn),
                 south.block_id, (slice(g + nys, g + nys + g), cs)),
        CopySpec("n", south.block_id, (slice(nys, nys + g), cs),
                 north.block_id, (slice(0, g), cn)),
        CopySpec("n", north.block_id, (slice(g + 1, 2 * g + 1), cn),
                 south.block_id, (slice(g + nys + 1, g + nys + 1 + g), cs)),
    ]
    csf = slice(cs.start, cs.stop + 1)
    cnf = slice(cn.start, cn.stop + 1)
    specs += [
        CopySpec("m", south.block_id, (slice(g + nys - g, g + nys), csf),
                 north.block_id, (slice(0, g), cnf)),
        CopySpec("m", north.block_id, (slice(g, 2 * g), cnf),
                 south.block_id, (slice(g + nys, g + nys + g), csf)),
    ]
    return specs


def seam_copy_specs(a: Block, b: Block, nghost: int = NGHOST) -> list[CopySpec]:
    """All ghost copies for the seam between two touching blocks."""
    if not a.touches(b):
        raise CommunicationError(
            f"blocks {a.block_id} and {b.block_id} are not edge neighbors"
        )
    if a.gi1 == b.gi0:
        return _vertical_specs(a, b, nghost)
    if b.gi1 == a.gi0:
        return _vertical_specs(b, a, nghost)
    if a.gj1 == b.gj0:
        return _horizontal_specs(a, b, nghost)
    return _horizontal_specs(b, a, nghost)


def _array(state, field: str) -> np.ndarray:
    return {"z": state.z_new, "m": state.m_new, "n": state.n_new}[field]


def exchange_halo(state_a, state_b, which: str, nghost: int = NGHOST) -> None:
    """Exchange ghost layers of one field ('z', 'm' or 'n') between neighbors.

    Operates on the *new* (write) buffers, matching the paper's pipeline
    where exchanges immediately follow the kernel that produced the field.
    """
    if which not in ("z", "m", "n"):
        raise CommunicationError(f"unknown field {which!r}")
    states = {
        state_a.block.block_id: state_a,
        state_b.block.block_id: state_b,
    }
    for spec in seam_copy_specs(state_a.block, state_b.block, nghost):
        if spec.field != which:
            continue
        src = _array(states[spec.src_block], which)
        dst = _array(states[spec.dst_block], which)
        dst[spec.dst] = src[spec.src]


# ---------------------------------------------------------------------------
# JNZ (nesting/restrict.py)
# ---------------------------------------------------------------------------


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


def pack_restriction(
    child_z: np.ndarray,
    child: Block,
    regions: list[tuple[int, int, int, int]],
    ratio: int = REFINEMENT_RATIO,
    nghost: int = NGHOST,
) -> np.ndarray:
    """Sender side of JNZ: 3x3-average the child cells into a buffer.

    The buffer holds one value per parent cell, region by region in
    row-major order — the JNZ_BUFS layout of Listing 6.
    """
    g = nghost
    parts = []
    for i0, j0, i1, j1 in regions:
        cj0 = g + ratio * j0 - child.gj0
        ci0 = g + ratio * i0 - child.gi0
        npj, npi = j1 - j0, i1 - i0
        sub = child_z[cj0 : cj0 + ratio * npj, ci0 : ci0 + ratio * npi]
        parts.append(
            sub.reshape(npj, ratio, npi, ratio).mean(axis=(1, 3)).ravel()
        )
    if not parts:
        return np.empty(0, dtype=child_z.dtype)
    return np.concatenate(parts)


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
    g = nghost
    offset = 0
    for i0, j0, i1, j1 in regions:
        pj = slice(g + j0 - parent.gj0, g + j1 - parent.gj0)
        pi = slice(g + i0 - parent.gi0, g + i1 - parent.gi0)
        npj, npi = j1 - j0, i1 - i0
        vals = buf[offset : offset + npj * npi].reshape(npj, npi)
        if parent_h is None:
            parent_z[pj, pi] = vals
        else:
            sea = parent_h[pj, pi] > 0.0
            parent_z[pj, pi] = np.where(sea, vals, parent_z[pj, pi])
        offset += npj * npi
    return offset


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
    are numerically identical by construction.  See
    :func:`unpack_restriction` for the *parent_h* land mask.
    """
    regions = restriction_region(parent, child, mode, width, ratio)
    buf = pack_restriction(child_z, child, regions, ratio, nghost)
    return unpack_restriction(parent_z, parent, regions, buf, nghost, parent_h)


# ---------------------------------------------------------------------------
# JNQ (nesting/interp.py)
# ---------------------------------------------------------------------------


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
    g = nghost
    parts: list[np.ndarray] = []
    for side in ("W", "E", "S", "N"):
        flux = parent_m if side in ("W", "E") else parent_n
        for seg in segments.get(side, []):
            geom = _edge_geometry(parent, child, side, seg, ratio)
            if geom is None:
                continue
            pface, plo, phi, _edge = geom
            if side in ("W", "E"):
                col = g + pface - parent.gi0
                parts.append(
                    flux[g + plo - parent.gj0 : g + phi - parent.gj0, col]
                )
            else:
                row = g + pface - parent.gj0
                parts.append(
                    flux[row, g + plo - parent.gi0 : g + phi - parent.gi0]
                )
    if not parts:
        return np.empty(0, dtype=parent_m.dtype)
    return np.concatenate([np.asarray(p).ravel() for p in parts])


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
    g = nghost
    offset = 0
    written = 0
    for side in ("W", "E", "S", "N"):
        flux = child_m if side in ("W", "E") else child_n
        for seg in segments.get(side, []):
            geom = _edge_geometry(parent, child, side, seg, ratio)
            if geom is None:
                continue
            pface, plo, phi, edge = geom
            vals = buf[offset : offset + (phi - plo)]
            offset += phi - plo
            if side in ("W", "E"):
                child_col = g + (edge - child.gi0)
                r0 = g + ratio * plo - child.gj0
                flux[r0 : r0 + ratio * (phi - plo), child_col] = np.repeat(
                    vals, ratio
                )
            else:
                child_row = g + (edge - child.gj0)
                c0 = g + ratio * plo - child.gi0
                flux[child_row, c0 : c0 + ratio * (phi - plo)] = np.repeat(
                    vals, ratio
                )
            written += ratio * (phi - plo)
    return written


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
    number of child faces written (the JNQ message volume).  Implemented
    as pack + unpack so the local and distributed (MPI) paths are
    numerically identical by construction.
    """
    buf = pack_fluxes(parent_m, parent_n, parent, child, segments, ratio, nghost)
    return unpack_fluxes(
        child_m, child_n, parent, child, segments, buf, ratio, nghost
    )


# ---------------------------------------------------------------------------
# Listing-6 pack (xchg/offsets.py)
# ---------------------------------------------------------------------------


def pack_irregular_offsets(
    field: np.ndarray,
    regions: list[IrregularRegion],
    table: OffsetTable | None = None,
    ratio: int = 3,
) -> np.ndarray:
    """Listing-6 pack: every region written independently at its offset."""
    if table is None:
        table = build_offset_table(regions, ratio)
    buf = np.empty(table.total, dtype=field.dtype)
    for idx, (j0, j1, i0, i1) in enumerate(regions):
        nj, ni = (j1 - j0) // ratio, (i1 - i0) // ratio
        sub = field[j0:j1, i0:i1].reshape(nj, ratio, ni, ratio)
        buf[table.offsets[idx] : table.offsets[idx] + table.counts[idx]] = (
            sub.mean(axis=(1, 3)).ravel()
        )
    return buf
