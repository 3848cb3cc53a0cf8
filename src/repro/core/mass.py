"""NLMASS — the continuity update (Eq. 1 of the paper).

Leap-frog staggered discretization::

    z[j,i]^{n+1} = z[j,i]^n - dt/dx * (M[j,i+1] - M[j,i])
                            - dt/dx * (N[j+1,i] - N[j,i])

followed by the TUNAMI wet/dry clamp: cells whose total depth falls below
the dry threshold have their water level pinned to the ground elevation
``-h`` (zero total depth).

This routine is one of the two bottlenecks the paper migrates (60-70 % of
runtime together with NLMNT2).  It runs in row strips out of the thread's
scratch arena (:mod:`repro.core.scratch`), so a call allocates nothing.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DRY_THRESHOLD
from repro.core.scratch import carve, reject_aliasing, strips
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
    ny = z_old.shape[0] - 2 * g
    nx = z_old.shape[1] - 2 * g
    ci = slice(g, g + nx)
    reject_aliasing("nlmass", out, z_old, m_old, n_old, hz)

    for j0, j1, whole in strips(g, g + ny, nx):
        out[whole] = z_old[whole]  # carries the ghosts over
        cj = slice(j0, j1)
        zi, h = out[cj, ci], hz[cj, ci]
        ((tmp,), (dry,)) = carve(out.dtype, False, (1, 1, zi.shape))

        # Flux divergence.  M face i is the left edge of cell i; N face j
        # is the bottom edge of cell j.
        np.subtract(m_old[cj, g + 1 : g + nx + 1], m_old[cj, ci], out=tmp)
        np.multiply(dt / dx, tmp, out=tmp)
        np.subtract(zi, tmp, out=zi)
        np.subtract(n_old[j0 + 1 : j1 + 1, ci], n_old[cj, ci], out=tmp)
        np.multiply(-dt / dx, tmp, out=tmp)
        np.add(zi, tmp, out=zi)

        # Wet/dry clamp (moving shoreline): pin dry cells to the ground.
        np.add(zi, h, out=tmp)
        np.less(tmp, dry_threshold, out=dry)
        np.negative(h, out=tmp)
        np.copyto(zi, tmp, where=dry)
    return out
