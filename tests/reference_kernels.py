"""Frozen reference kernels — NEVER OPTIMISE.

Verbatim copies of ``nlmass``, ``momentum_core``/``nlmnt2`` and
``OutputAccumulator.update`` as they stood before the kernels were
rewritten to run in row strips out of a scratch arena.  They allocate a
full-block temporary for every intermediate, which is what makes them
easy to read and slow; ``tests/test_kernels_bitwise.py`` requires the
shipped kernels to reproduce them bit for bit.  Do not tidy, vectorise
further, or "fix" anything here: a change to this file changes what the
differential test proves.

``output_update`` is the method body with the accumulator passed as
``self``.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DRY_THRESHOLD, GRAVITY, MAX_VELOCITY
from repro.grid.staggered import NGHOST, interior


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

    Returns
    -------
    ``out``.
    """
    g = nghost
    ny = z_old.shape[0] - 2 * g
    nx = z_old.shape[1] - 2 * g
    cj = slice(g, g + ny)
    ci = slice(g, g + nx)

    # Flux divergence.  M face i is the left edge of cell i; N face j is
    # the bottom edge of cell j.
    dmdx = m_old[cj, g + 1 : g + nx + 1] - m_old[cj, g : g + nx]
    dndy = n_old[g + 1 : g + ny + 1, ci] - n_old[g : g + ny, ci]

    out[...] = z_old
    zi = out[cj, ci]
    zi -= (dt / dx) * dmdx
    zi += (-dt / dx) * dndy

    # Wet/dry clamp (moving shoreline): pin dry cells to the ground.
    h = hz[cj, ci]
    dry = (zi + h) < dry_threshold
    np.copyto(zi, -h, where=dry)
    return out


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
    governed by boundary conditions or parent-grid coupling.

    Returns ``out``.
    """
    g = nghost
    ny = z_new.shape[0] - 2 * g
    nx = z_new.shape[1] - 2 * g

    # ------------------------------------------------------------------
    # Wide face range: faces 1 .. nx+2g (m-array columns), i.e. every face
    # that has both neighbor cells inside the padded array.  Width nx+3
    # for g=2.  All face-centered intermediates live on this range over
    # *all* rows, so the cross-term can index j-1/j+1 freely.
    # ------------------------------------------------------------------
    wf = slice(1, nx + 2 * g)  # m-array columns of the wide range
    zl = z_new[:, 0 : nx + 2 * g - 1]  # cell left of each wide face
    zr = z_new[:, 1 : nx + 2 * g]  # cell right of each wide face
    hl = hz[:, 0 : nx + 2 * g - 1]
    hr = hz[:, 1 : nx + 2 * g]

    dl = zl + hl
    dr = zr + hr
    wet_l = dl > dry_threshold
    wet_r = dr > dry_threshold

    both = wet_l & wet_r
    over_r = wet_l & ~wet_r & (zl > -hr)  # overflow toward the right
    over_l = wet_r & ~wet_l & (zr > -hl)  # overflow toward the left
    open_face = both | over_r | over_l

    df = np.where(both, 0.5 * (dl + dr), 0.0)
    df = np.where(over_r, zl + hr, df)
    df = np.where(over_l, zr + hl, df)
    df_safe = np.maximum(df, dry_threshold)

    m_wide = mm_old[:, wf]

    if nonlinear:
        # Advective flux F = M^2 / D at faces (zero on closed faces).
        flux = np.where(open_face, m_wide * m_wide / df_safe, 0.0)

        # Cross flux G = M * NV / D at faces, with NV the 4-point average
        # of the transverse flux at the M point.  nn_old rows j and j+1
        # are the faces below/above cell row j.
        n_l = nn_old[:, 0 : nx + 2 * g - 1]
        n_r = nn_old[:, 1 : nx + 2 * g]
        nv = 0.25 * (n_l[:-1, :] + n_r[:-1, :] + n_l[1:, :] + n_r[1:, :])
        cross = np.where(open_face, m_wide * nv / df_safe, 0.0)

    # ------------------------------------------------------------------
    # Target face range: physical faces, m-array columns g .. g+nx
    # (wide-range index g-1 .. g-1+nx+1).
    # ------------------------------------------------------------------
    tj = slice(g, g + ny)  # physical cell rows
    tw = slice(g - 1, g + nx)  # target faces in wide-range coordinates

    m_c = m_wide[tj, tw]
    df_c = df[tj, tw]
    df_safe_c = df_safe[tj, tw]
    open_c = open_face[tj, tw]
    dzdx = (zr[tj, tw] - zl[tj, tw]) / dx

    rhs = m_c - gravity * df_c * dt * dzdx
    if nonlinear:
        f_c = flux[tj, tw]
        f_m = flux[tj, slice(g - 2, g + nx - 1)]
        f_p = flux[tj, slice(g, g + nx + 1)]
        adv_x = np.where(m_c >= 0.0, f_c - f_m, f_p - f_c) / dx

        g_c = cross[tj, tw]
        g_jm = cross[slice(g - 1, g + ny - 1), tw]
        g_jp = cross[slice(g + 1, g + ny + 1), tw]
        nv_c = nv[tj, tw]
        adv_y = np.where(nv_c >= 0.0, g_c - g_jm, g_jp - g_c) / dx

        rhs -= dt * (adv_x + adv_y)

        # Semi-implicit Manning friction.
        speed_flux = np.sqrt(m_c * m_c + nv_c * nv_c)
        fric = (
            gravity
            * manning
            * manning
            * speed_flux
            / np.power(df_safe_c, 7.0 / 3.0)
        )
        rhs /= 1.0 + dt * fric

    m_next = np.where(open_c, rhs, 0.0)

    # Velocity cap: |M| <= cap * D.
    limit = velocity_cap * df_safe_c
    np.clip(m_next, -limit, limit, out=m_next)

    out[...] = mm_old
    out[tj, slice(g, g + nx + 1)] = m_next
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
    momentum_core(
        z_new,
        m_old,
        n_old,
        hz,
        dt,
        dx,
        manning,
        out_m,
        nonlinear=nonlinear,
        dry_threshold=dry_threshold,
        velocity_cap=velocity_cap,
        gravity=gravity,
        nghost=nghost,
    )
    # Transposed views: the N faces become "vertical" faces of the
    # transposed block, with M acting as the transverse flux.
    out_n_t = out_n.T
    momentum_core(
        z_new.T,
        n_old.T,
        m_old.T,
        hz.T,
        dt,
        dx,
        manning,
        out_n_t,
        nonlinear=nonlinear,
        dry_threshold=dry_threshold,
        velocity_cap=velocity_cap,
        gravity=gravity,
        nghost=nghost,
    )
    return out_m, out_n


def output_update(
    self,
    z: np.ndarray,
    m: np.ndarray,
    n: np.ndarray,
    hz: np.ndarray,
    time: float,
    dry_threshold: float = DRY_THRESHOLD,
    nghost: int = NGHOST,
) -> None:
    """Fold one step's padded state arrays into the running products."""
    ny, nx = self.block.ny, self.block.nx
    sl = interior(ny, nx, nghost)
    g = nghost
    zi = z[sl]
    hi = hz[sl]
    d = np.maximum(zi + hi, 0.0)
    wet = d > dry_threshold

    np.maximum(self.zmax, np.where(wet, zi, self.zmax), out=self.zmax)

    # Cell-centered speed from face fluxes.
    mc = 0.5 * (m[g : g + ny, g : g + nx] + m[g : g + ny, g + 1 : g + nx + 1])
    nc = 0.5 * (n[g : g + ny, g : g + nx] + n[g + 1 : g + ny + 1, g : g + nx])
    # Speeds are meaningless on very thin films, and the face fluxes
    # feeding a shoreline cell may reference a much larger face depth;
    # report only where the water column is resolvable, clipped to the
    # solver's own velocity cap.
    deep_enough = d > max(dry_threshold, self.SPEED_MIN_DEPTH)
    speed = np.where(
        deep_enough, np.sqrt(mc * mc + nc * nc) / np.maximum(d, self.SPEED_MIN_DEPTH), 0.0
    )
    np.minimum(speed, MAX_VELOCITY, out=speed)
    np.maximum(self.vmax, speed, out=self.vmax)

    np.maximum(
        self.inundation_max,
        np.where(self._land & wet, d, 0.0),
        out=self.inundation_max,
    )

    arrived = (
        np.isinf(self.arrival_time)
        & (np.abs(zi - self._z0) > self.arrival_threshold)
    )
    self.arrival_time[arrived] = time
