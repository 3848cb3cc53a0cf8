"""NLMASS — the continuity update (Eq. 1 of the paper).

Leap-frog staggered discretization::

    z[j,i]^{n+1} = z[j,i]^n - dt/dx * (M[j,i+1] - M[j,i])
                            - dt/dx * (N[j+1,i] - N[j,i])

followed by the TUNAMI wet/dry clamp: cells whose total depth falls below
the dry threshold have their water level pinned to the ground elevation
``-h`` (zero total depth).

This routine is one of the two bottlenecks the paper migrates (60-70 % of
runtime together with NLMNT2).  It runs in row strips out of the thread's
scratch arena (:mod:`repro.core.scratch`), so a call allocates nothing, and
like NLMNT2 over flat ranges at the row pitch of ``z`` (DESIGN.md §9b).
"""

from __future__ import annotations

import numpy as np

from repro.constants import DRY_THRESHOLD
from repro.core import loopnest
from repro.core.scratch import carry_over, carve, each_strip, reject_aliasing, strips, window
from repro.grid.staggered import NGHOST


def nlmass(
    z_old: np.ndarray,
    m_old: np.ndarray,
    n_old: np.ndarray,
    hz: np.ndarray,
    dt: float,
    dx: float,
    out: np.ndarray,
    dry_threshold: float = DRY_THRESHOLD,
    nghost: int = NGHOST,
) -> np.ndarray:
    """Continuity update over the physical cells of one block.

    Parameters
    ----------
    z_old, m_old, n_old:
        Read buffers (shapes per :mod:`repro.grid.staggered`).
    hz:
        Still-water depth at cell centers (same shape as ``z_old``).
    out:
        Write buffer for the new water level; ghost cells are copied from
        ``z_old`` so subsequent ghost fills only need to touch seams.
        Must not share memory with an input.

    Returns
    -------
    ``out``.
    """
    g = nghost
    call = loopnest.prepared(
        "nlmass", (z_old, m_old, n_old, hz, out), g, (dry_threshold, dt, dx)
    )
    if call:  # one nest call a strip, its ghost frame included
        fn, table, ratio = call.fn, call.table, dt / dx
        each_strip(
            lambda j0, j1: fn(*table, j0, j1, ratio, dry_threshold), call.cuts, "NLMASS"
        )
        return out

    ny = z_old.shape[0] - 2 * g
    P = z_old.shape[1]
    reject_aliasing("nlmass", out, z_old, m_old, n_old, hz)
    if not out.flags.c_contiguous:  # no flat frame to write: go through one
        flat = np.empty(out.shape, out.dtype)
        out[...] = nlmass(z_old, m_old, n_old, hz, dt, dx, flat, dry_threshold, g)
        return out

    out_flat = out.reshape(-1)

    def body(j0: int, j1: int) -> None:
        # Whole rows, ghost columns included, as one flat range: the N face
        # above a cell is one pitch on.
        lo, hi = j0 * P, j1 * P
        at_p, _, (tmp,), (dry,) = carve(
            out.dtype, (3, 0, ((j1 - j0 + 1) * P,)), (1, 1, (hi - lo,))
        )
        z = window(z_old, P, lo, hi, at_p[0])  # views, unless handed loose arrays
        h = window(hz, P, lo, hi, at_p[1])
        nn = window(n_old, P, lo, hi + P, at_p[2])
        zi = out_flat[lo:hi]

        # Flux divergence.  M face i is the left edge of cell i (its rows
        # lie one element further apart: the one strided pass); N face j
        # is the bottom edge of cell j.
        np.subtract(m_old[j0:j1, 1:], m_old[j0:j1, :-1], out=tmp.reshape(j1 - j0, P))
        np.multiply(dt / dx, tmp, out=tmp)
        np.subtract(z, tmp, out=zi)
        np.subtract(nn[P:], nn[:-P], out=tmp)
        np.multiply(-dt / dx, tmp, out=tmp)
        np.add(zi, tmp, out=zi)

        # Wet/dry clamp (moving shoreline): pin dry cells to the ground.
        np.add(zi, h, out=tmp)
        np.less(tmp, dry_threshold, out=dry)
        np.negative(h, out=tmp)
        np.copyto(zi, tmp, where=dry)

    each_strip(body, strips(g, g + ny, P), "NLMASS")
    # The ghost columns were computed along with the rest: put them back.
    carry_over(out, z_old, slice(g, g + ny), slice(g, P - g))
    return out
