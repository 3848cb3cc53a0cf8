"""NLMNT2 — the momentum update (Eqs. 2-3 of the paper).

The x- and y-momentum equations are solved by the same kernel
(:func:`momentum_core`): the y-update is the x-update applied to transposed
array views with the roles of M and N swapped, exactly as the original
code's XMMT/YMMT routine pair mirrors one another.

Discretization (TUNAMI-N2, Goto et al. 1997):

* pressure gradient: centered, ``-g * D_f * dt/dx * (z_R - z_L)`` with the
  face total depth ``D_f`` from the moving-boundary rules below;
* advection: first-order upwind in conservative form, with the flux
  ``M^2/D`` and cross-flux ``M*N/D`` evaluated at faces;
* bottom friction: Manning law, treated semi-implicitly
  (``/(1 + dt * g n^2 |u| / D^{7/3})``), which is unconditionally stable
  for thin layers;
* moving boundary: a face is *open* if both adjacent cells are wet
  (``D_f`` = mean total depth), or if exactly one is wet and its water
  level exceeds the dry side's ground elevation (``D_f`` = overflow head);
  otherwise the face is closed and its flux is zero.

A velocity cap (default 20 m/s) is applied after the update, as in
operational TUNAMI-class codes, to keep the shoreline scheme benign.
"""

from __future__ import annotations

import numpy as np

try:  # the ufunc behind np.clip, minus that wrapper's 1.5 us of Python per call
    from numpy._core.umath import clip as _clip
except ImportError:  # NumPy 1.x
    from numpy.core.umath import clip as _clip

from repro.constants import DRY_THRESHOLD, GRAVITY, MAX_VELOCITY
from repro.core.scratch import carve, reject_aliasing, strips
from repro.grid.staggered import NGHOST


def momentum_core(
    z_new: np.ndarray,
    mm_old: np.ndarray,
    nn_old: np.ndarray,
    hz: np.ndarray,
    dt: float,
    dx: float,
    manning: float,
    out: np.ndarray,
    nonlinear: bool = True,
    dry_threshold: float = DRY_THRESHOLD,
    velocity_cap: float = MAX_VELOCITY,
    gravity: float = GRAVITY,
    nghost: int = NGHOST,
) -> np.ndarray:
    """Update the flux normal to "vertical" faces (the M update).

    Shapes (with ``G = nghost``, block of ``ny x nx`` cells):
    ``z_new, hz: (ny+2G, nx+2G)``; ``mm_old, out: (ny+2G, nx+1+2G)``;
    ``nn_old: (ny+1+2G, nx+2G)``.  Pass transposed views with
    ``mm_old = n.T`` / ``nn_old = m.T`` to obtain the N update.

    Physical faces (columns ``G .. G+nx`` inclusive) are all written,
    including block-edge faces; the caller overwrites edge faces that are
    governed by boundary conditions or parent-grid coupling.  ``out`` must
    not share memory with an input.

    Returns ``out``.
    """
    g = nghost
    ny = z_new.shape[0] - 2 * g
    nx = z_new.shape[1] - 2 * g
    reject_aliasing("momentum_core", out, z_new, mm_old, nn_old, hz)

    # Strips follow memory rows: axis 0, or axis 1 of the transposed views
    # the N pass hands in, so both passes stream contiguous memory.
    transposed = z_new.strides[0] < z_new.strides[1]
    rows, faces = (g, g + ny), (g, g + nx + 1)
    if transposed:
        windows = [(*rows, lo, hi, ..., ext) for lo, hi, ext in strips(*faces, ny + 2)]
    else:
        windows = [(lo, hi, *faces, ext, ...) for lo, hi, ext in strips(*rows, nx + 4)]
    k_fric = gravity * manning * manning
    tj = slice(1, -1)
    tgt = (tj, tj)  # target rows and faces within a window's wide range
    for j0, j1, f0, f1, ej, ef in windows:
        # Everything but the physical faces is carried over unchanged.
        out[ej, ef] = mm_old[ej, ef]
        # Target faces f0..f1 of rows j0..j1 need one more face and row on
        # every side (the wide range), so cells j0-1..j1+1 x f0-2..f1+1:
        # cell f-1 is left of face f.
        cj, ci = slice(j0 - 1, j1 + 1), slice(f0 - 2, f1 + 1)
        z, h, m_wide = z_new[cj, ci], hz[cj, ci], mm_old[cj, f0 - 1 : f1 + 1]
        (
            (d,), (wet,), (t1, t2, cross, df, df_safe), (both, over_r, over_l, tmp),
            (t3, t4, t5, rhs), (mask,),
        ) = carve(
            out.dtype, transposed, (1, 1, z.shape), (5, 4, m_wide.shape),
            (4, 1, (j1 - j0, f1 - f0)),
        )
        zl, zr, hl, hr = z[:, :-1], z[:, 1:], h[:, :-1], h[:, 1:]

        # Total depth and wetness once per cell, shared by both its faces.
        np.add(z, h, out=d)
        np.greater(d, dry_threshold, out=wet)
        dl, dr, wet_l, wet_r = d[:, :-1], d[:, 1:], wet[:, :-1], wet[:, 1:]

        # Overflow heads, t1 rightward and t2 leftward.  ``zl + hr > 0`` is
        # ``zl > -hr`` exactly: x + y rounds to zero only when x == -y.
        np.bitwise_and(wet_l, wet_r, out=both)
        np.add(zl, hr, out=t1)
        np.greater(wet_l, wet_r, out=over_r)  # wet on the left only
        np.greater(t1, 0.0, out=tmp)
        np.bitwise_and(over_r, tmp, out=over_r)
        np.add(zr, hl, out=t2)
        np.less(wet_l, wet_r, out=over_l)  # wet on the right only
        np.greater(t2, 0.0, out=tmp)
        np.bitwise_and(over_l, tmp, out=over_l)

        # Face depth: the mean where both cells are wet, the head on an
        # overflowing face (the cases exclude one another), else zero.
        np.add(dl, dr, out=df)
        np.multiply(0.5, df, out=df)
        np.copyto(df, t1, where=over_r)
        np.copyto(df, t2, where=over_l)
        closed = both  # overwrites ``both``, which is dead from here
        np.bitwise_or(both, over_r, out=closed)
        np.bitwise_or(closed, over_l, out=closed)
        np.invert(closed, out=closed)
        np.copyto(df, 0.0, where=closed)
        np.maximum(df, dry_threshold, out=df_safe)

        if nonlinear:
            # Advective flux F = M^2 / D at faces (zero on closed faces).
            flux, nv = t1[tj], t2
            np.multiply(m_wide[tj], m_wide[tj], out=flux)
            np.divide(flux, df_safe[tj], out=flux)
            np.copyto(flux, 0.0, where=closed[tj])

            # Cross flux G = M * NV / D at faces, with NV the 4-point
            # average of the transverse flux at the M point.  nn rows j
            # and j+1 are the faces below/above cell row j.
            nn = nn_old[j0 - 1 : j1 + 2, ci]
            n_l, n_r = nn[:, :-1], nn[:, 1:]
            np.add(n_l[:-1], n_r[:-1], out=nv)
            np.add(nv, n_l[1:], out=nv)
            np.add(nv, n_r[1:], out=nv)
            np.multiply(0.25, nv, out=nv)
            np.multiply(m_wide, nv, out=cross)
            np.divide(cross, df_safe, out=cross)
            np.copyto(cross, 0.0, where=closed)

        # Pressure gradient: rhs = M - g * D_f * dt * dz/dx.
        m_c, df_safe_c = m_wide[tgt], df_safe[tgt]
        np.subtract(zr[tgt], zl[tgt], out=t3)
        np.divide(t3, dx, out=t3)
        np.multiply(gravity, df[tgt], out=rhs)
        np.multiply(rhs, dt, out=rhs)
        np.multiply(rhs, t3, out=rhs)
        np.subtract(m_c, rhs, out=rhs)

        if nonlinear:
            # First-order upwind advection.
            f_c, nv_c, g_c = flux[:, tj], nv[tgt], cross[tgt]
            np.subtract(flux[:, 2:], f_c, out=t3)
            np.subtract(f_c, flux[:, :-2], out=t4)
            np.greater_equal(m_c, 0.0, out=mask)
            np.copyto(t3, t4, where=mask)
            np.divide(t3, dx, out=t3)
            np.subtract(cross[2:, tj], g_c, out=t4)
            np.subtract(g_c, cross[:-2, tj], out=t5)
            np.greater_equal(nv_c, 0.0, out=mask)
            np.copyto(t4, t5, where=mask)
            np.divide(t4, dx, out=t4)
            np.add(t3, t4, out=t3)
            np.multiply(dt, t3, out=t3)
            np.subtract(rhs, t3, out=rhs)

            # Semi-implicit Manning friction.
            np.multiply(m_c, m_c, out=t3)
            np.multiply(nv_c, nv_c, out=t4)
            np.add(t3, t4, out=t3)
            np.sqrt(t3, out=t3)
            np.multiply(k_fric, t3, out=t3)
            np.power(df_safe_c, 7.0 / 3.0, out=t4)
            np.divide(t3, t4, out=t3)
            np.multiply(dt, t3, out=t3)
            np.add(1.0, t3, out=t3)
            np.divide(rhs, t3, out=rhs)

        np.copyto(rhs, 0.0, where=closed[tgt])

        # Velocity cap: |M| <= cap * D.
        np.multiply(velocity_cap, df_safe_c, out=t3)
        np.negative(t3, out=t4)
        _clip(rhs, t4, t3, out=out[j0:j1, f0:f1])
    return out


def nlmnt2(
    z_new: np.ndarray,
    m_old: np.ndarray,
    n_old: np.ndarray,
    hz: np.ndarray,
    dt: float,
    dx: float,
    manning: float,
    out_m: np.ndarray,
    out_n: np.ndarray,
    nonlinear: bool = True,
    dry_threshold: float = DRY_THRESHOLD,
    velocity_cap: float = MAX_VELOCITY,
    gravity: float = GRAVITY,
    nghost: int = NGHOST,
) -> tuple[np.ndarray, np.ndarray]:
    """Full momentum step: update M (XMMT) and N (YMMT) for one block.

    The N update reuses :func:`momentum_core` on transposed views — the
    scheme is symmetric under (x <-> y, M <-> N).
    """
    options = dict(
        nonlinear=nonlinear,
        dry_threshold=dry_threshold,
        velocity_cap=velocity_cap,
        gravity=gravity,
        nghost=nghost,
    )
    momentum_core(z_new, m_old, n_old, hz, dt, dx, manning, out_m, **options)
    # Transposed views: the N faces become "vertical" faces of the
    # transposed block, with M acting as the transverse flux.
    momentum_core(
        z_new.T, n_old.T, m_old.T, hz.T, dt, dx, manning, out_n.T, **options
    )
    return out_m, out_n
