"""NLMNT2 — the momentum update (Eqs. 2-3 of the paper).

The x- and y-momentum equations are solved by the same kernel
(:func:`momentum_core`): the y-update is the x-update applied to transposed
array views with the roles of M and N swapped, exactly as the original
code's XMMT/YMMT routine pair mirrors one another.

The kernel addresses memory the way the Fortran loops do (DESIGN.md §9b):
a block's arrays are flat ranges at the row pitch ``P = nx + 2 * NGHOST``,
the face at index ``I`` lies between cells ``I - s`` and ``I`` and has the
transverse neighbours ``I - c`` and ``I + c`` — ``(s, c) = (1, P)`` for M,
``(P, 1)`` for N.  Every intermediate is a contiguous slice of arena scratch;
lanes at row wraps and in ghost columns compute on the real data next to
them and are never written out.

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
from repro.core import loopnest
from repro.core.scratch import (
    carry_over, carve, each_strip, reject_aliasing, strips, sweep_planes, window,
)
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
    governed by boundary conditions or parent-grid coupling; the rest of
    ``out`` is carried over from ``mm_old``.  ``out`` must not share memory
    with an input.  An input at another pitch (``m``; anything not
    contiguous) is copied to the flat frame a strip at a time.

    Returns ``out``.
    """
    g = nghost
    ny = z_new.shape[0] - 2 * g
    nx = z_new.shape[1] - 2 * g

    # The memory frame.  Handed transposes (the N pass), undo them and step
    # one row along the flux, one element across it, instead of the reverse.
    frame = (z_new, hz, mm_old, nn_old, out)
    rows, cols = slice(g, g + ny), slice(g, g + nx + 1)
    transposed = z_new.strides[0] < z_new.strides[1]
    if transposed:
        frame = [a.T for a in frame]
        rows, cols = cols, rows
    z_in, h_in, along, trans, dest = frame
    scalars = (dry_threshold, dt, dx, manning, velocity_cap, gravity)
    m_in, n_in = (trans, along) if transposed else (along, trans)
    call = loopnest.prepared(
        "ymmt" if transposed else "xmmt", (z_in, m_in, n_in, h_in, dest), g, scalars
    )
    if call:
        _launch(call, nonlinear, *scalars)
        return out

    reject_aliasing("momentum_core", out, z_new, mm_old, nn_old, hz)
    P, nf = z_in.shape[1], cols.stop - cols.start
    s, c = (P, 1) if transposed else (1, P)
    carry_over(dest, along, rows, cols)
    k_fric = gravity * manning * manning

    def body(r0: int, r1: int) -> None:
        # Targets: the flat range from the strip's first face to its last.
        # Wide range: one pitch more either side, so I +- s and I +- c of
        # every target; cells: one more s in front (the cell left of a face).
        lt = (r1 - r0 - 1) * P + nf
        lw = lt + 2 * P
        w0 = (r0 - 1) * P + cols.start
        (
            at_p, _, (d,), (wet,), (t1, t2, cross, df, df_safe),
            (both, over_r, over_l, tmp), (t3, t4, t5, rhs), (mask,),
        ) = carve(
            out.dtype, (4, 0, ((r1 - r0 + 3) * P,)), (1, 1, (lw + s,)),
            (5, 4, (lw,)), (4, 1, (lt,)),
        )
        # M (pitch P + 1) goes through ``at_p``; so would a loose input.
        z = window(z_in, P, w0 - s, w0 + lw, at_p[0])
        h = window(h_in, P, w0 - s, w0 + lw, at_p[1])
        m_wide = window(along, P, w0, w0 + lw, at_p[2])
        zl, zr, hl, hr = z[:lw], z[s:], h[:lw], h[s:]
        tgt = slice(P, P + lt)  # the targets within the wide range

        # Total depth and wetness once per cell, shared by both its faces.
        np.add(z, h, out=d)
        np.greater(d, dry_threshold, out=wet)
        dl, dr, wet_l, wet_r = d[:lw], d[s:], wet[:lw], wet[s:]

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
            flux, nv = t1, t2
            np.multiply(m_wide, m_wide, out=flux)
            np.divide(flux, df_safe, out=flux)
            np.copyto(flux, 0.0, where=closed)

            # Cross flux G = M * NV / D at faces, with NV the average of the
            # transverse flux at the four faces around the M point: those
            # of the cell behind (-s) and the cell ahead, below and above (+c).
            nn = window(trans, P, w0 - s, w0 + lw + c, at_p[3])
            np.add(nn[:lw], nn[s : s + lw], out=nv)
            np.add(nv, nn[c : c + lw], out=nv)
            np.add(nv, nn[s + c :], out=nv)
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
            f_c, nv_c, g_c = flux[tgt], nv[tgt], cross[tgt]
            np.subtract(flux[P + s : P + s + lt], f_c, out=t3)
            np.subtract(f_c, flux[P - s : P - s + lt], out=t4)
            np.greater_equal(m_c, 0.0, out=mask)
            np.copyto(t3, t4, where=mask)
            np.divide(t3, dx, out=t3)
            np.subtract(cross[P + c : P + c + lt], g_c, out=t4)
            np.subtract(g_c, cross[P - c : P - c + lt], out=t5)
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

        # Velocity cap: |M| <= cap * D.  Only the faces leave the flat frame.
        np.multiply(velocity_cap, df_safe_c, out=t3)
        np.negative(t3, out=t4)
        _clip(rhs, t4, t3, out=rhs)
        isz = rhs.itemsize  # row r of ``faces`` is rhs[r * P :][:nf]
        faces = np.ndarray((r1 - r0, nf), rhs.dtype, rhs, 0, (P * isz, isz))
        np.copyto(dest[r0:r1, cols], faces)

    each_strip(body, strips(rows.start, rows.stop, P), "NLMNT2")
    return out


def _launch(call, nonlinear, dry_threshold, dt, dx, manning, velocity_cap, gravity) -> None:
    """A prepared call's sweeps — M, N or, for :func:`nlmnt2`, both of a strip
    at once — on the compiled nest: ``faces``, one power over the sweeps'
    ``df_safe`` (NumPy's: libm's ``pow`` is an ulp off it and 4-5x slower),
    ``update``, which also carries the ghost frame over."""
    (faces, update), (of_faces, of_update), planes = call.fn, call.table, call.planes
    k_fric = gravity * manning * manning

    def strip(r0: int, r1: int) -> None:
        at, df_safe, power = sweep_planes(*planes[r0])
        faces(*of_faces, at, r0, r1, nonlinear, dry_threshold)
        if nonlinear:
            np.power(df_safe, 7.0 / 3.0, out=power)
        update(*of_update, at, r0, r1, nonlinear, dt, dx, gravity, k_fric, velocity_cap)

    each_strip(strip, call.cuts, "NLMNT2")


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
    scalars = (dry_threshold, dt, dx, manning, velocity_cap, gravity)
    call = loopnest.prepared("nlmnt2", (z_new, m_old, n_old, hz, out_m, out_n), nghost, scalars)
    if call:
        _launch(call, nonlinear, *scalars)
        return out_m, out_n
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
