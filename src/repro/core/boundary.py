"""Outer boundary conditions and ghost-cell fills.

The coarsest grid level's outer edges face the open ocean (or the domain
limit).  Two conditions are provided:

* ``wall`` — fully reflective: the normal flux through the edge face is
  zero;
* ``open`` — radiating (free transmission): the normal flux equals the
  outgoing long-wave characteristic ``M = +- sqrt(g D) * z`` evaluated from
  the adjacent interior cell, so outgoing waves leave with minimal
  reflection.

Ghost layers of edges that are not covered by a same-level neighbor are
filled with zero-gradient copies; the fill order (x-ghosts, then y-ghost
rows including corners) is what makes a split-block run bitwise equal to a
monolithic one.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DRY_THRESHOLD, GRAVITY
from repro.core import loopnest
from repro.grid.staggered import NGHOST

#: Side names in the order (west, east, south, north).
SIDES = ("W", "E", "S", "N")


def apply_wall_boundary(
    m_new: np.ndarray,
    n_new: np.ndarray,
    sides: tuple[str, ...] = SIDES,
    nghost: int = NGHOST,
) -> None:
    """Zero the normal flux through the block's edge faces on *sides*."""
    g = nghost
    ny = n_new.shape[0] - 1 - 2 * g
    nx = m_new.shape[1] - 1 - 2 * g
    if "W" in sides:
        m_new[g : g + ny, g] = 0.0
    if "E" in sides:
        m_new[g : g + ny, g + nx] = 0.0
    if "S" in sides:
        n_new[g, g : g + nx] = 0.0
    if "N" in sides:
        n_new[g + ny, g : g + nx] = 0.0


def apply_open_boundary(
    z_new: np.ndarray,
    m_new: np.ndarray,
    n_new: np.ndarray,
    hz: np.ndarray,
    sides: tuple[str, ...] = SIDES,
    gravity: float = GRAVITY,
    dry_threshold: float = DRY_THRESHOLD,
    nghost: int = NGHOST,
) -> None:
    """Radiating condition on the block's edge faces on *sides*.

    The edge flux is ``+-sqrt(g * D) * z`` of the adjacent interior cell
    (positive sign on the east/north edges where +x/+y points outward).
    Dry adjacent cells radiate nothing.
    """
    g = nghost
    ny = z_new.shape[0] - 2 * g
    nx = z_new.shape[1] - 2 * g

    def _edge_flux(z_adj: np.ndarray, h_adj: np.ndarray, sign: float) -> np.ndarray:
        d = z_adj + h_adj
        wet = d > dry_threshold
        c = np.sqrt(gravity * np.maximum(d, 0.0))
        return np.where(wet, sign * c * z_adj, 0.0)

    if "W" in sides:
        m_new[g : g + ny, g] = _edge_flux(
            z_new[g : g + ny, g], hz[g : g + ny, g], -1.0
        )
    if "E" in sides:
        m_new[g : g + ny, g + nx] = _edge_flux(
            z_new[g : g + ny, g + nx - 1], hz[g : g + ny, g + nx - 1], +1.0
        )
    if "S" in sides:
        n_new[g, g : g + nx] = _edge_flux(
            z_new[g, g : g + nx], hz[g, g : g + nx], -1.0
        )
    if "N" in sides:
        n_new[g + ny, g : g + nx] = _edge_flux(
            z_new[g + ny - 1, g : g + nx], hz[g + ny - 1, g : g + nx], +1.0
        )


def _fill_moves(shape: tuple, sides: tuple, g: int):
    """The fill of an array of *shape* as moves, in the NumPy body's order."""
    if len(shape) != 2 or g < 1:
        return None, None
    (R, P), rows, cols = shape, slice(0, shape[0]), slice(0, shape[1])
    moves = {
        "W": ((rows, slice(0, g)), (rows, slice(g, g + 1))),
        "E": ((rows, slice(P - g, P)), (rows, slice(P - g - 1, P - g))),
        "S": ((slice(0, g), cols), (slice(g, g + 1), cols)),
        "N": ((slice(R - g, R), cols), (slice(R - g - 1, R - g), cols)),
    }
    copies = [loopnest.copy(0, to, 0, fro) for side, (to, fro) in moves.items() if side in sides]
    return copies, None


def fill_ghosts_zero_gradient(
    arr: np.ndarray,
    sides: tuple[str, ...],
    nghost: int = NGHOST,
) -> None:
    """Zero-gradient fill of the ghost layers on *sides* (in place).

    Columns (W/E) are filled first, then rows (S/N) — rows copy whole
    padded rows so corner ghosts inherit already-exchanged column values,
    which preserves split-vs-monolithic equivalence at seams.  On the
    compiled nest the fill is one prepared ``moves`` call (DESIGN.md §9i).
    """
    call = loopnest.exchange("moves", (arr,), _fill_moves, arr.shape, tuple(sides), nghost)
    if call:
        call.fn(*call.table)
        return
    g = nghost
    if "W" in sides:
        arr[:, :g] = arr[:, g : g + 1]
    if "E" in sides:
        arr[:, -g:] = arr[:, -g - 1 : -g]
    if "S" in sides:
        arr[:g, :] = arr[g : g + 1, :]
    if "N" in sides:
        arr[-g:, :] = arr[-g - 1 : -g, :]
