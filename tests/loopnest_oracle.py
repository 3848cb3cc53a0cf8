"""Eqs. 1-3 and the forecast products one cell and one face at a time, in
pure Python: the oracle.

Written from the discretisation the kernels' docstrings state (TUNAMI-N2
leap-frog on the staggered grid; moving boundary by wet/dry and overflow
rules; upwind advection; semi-implicit Manning friction; the velocity cap)
with 2-D indices and ``if`` statements — no flat frame, no masks, no scratch
planes, no strips — so that it shares no machinery with the NumPy bodies of
``repro.core`` or with ``loopnest.c``.  What it does share, because the
comparison is bitwise, is the order in which each formula rounds.

Every value is a NumPy scalar of the arrays' dtype, so each ``+ - * /`` and
``sqrt`` rounds once in that precision, as a Fortran ``REAL`` would.  The
one other function, the Manning term's ``D^(7/3)``, is ``np.power`` on such
a scalar: NumPy's power gives one value per operand whatever array it sits
in (Python's ``**`` and libm's ``pow`` are an ulp off it in a few percent of
operands).  :func:`output`'s speed is ``sqrt(u*u + v*v)``: correctly rounded
operations only.  Meant for blocks of up to about 12 x 12 cells.
"""

import numpy as np

from repro.constants import DRY_THRESHOLD, GRAVITY, MAX_VELOCITY
from repro.grid.staggered import NGHOST


def nlmass(z, m, n, h, dt, dx, dry=DRY_THRESHOLD, g=NGHOST):
    """Eq. 1 on the physical cells; everything else of ``z`` as it was."""
    real = z.dtype.type
    ratio, dry = real(dt / dx), real(dry)
    out = z.copy()
    with np.errstate(all="ignore"):
        for j in range(g, z.shape[0] - g):
            for i in range(g, z.shape[1] - g):
                level = z[j, i] - ratio * (m[j, i + 1] - m[j, i])
                level = level - ratio * (n[j + 1, i] - n[j, i])
                if level + h[j, i] < dry:  # a dry cell sits on the ground
                    level = -h[j, i]
                out[j, i] = level
    return out


def x_momentum(z, h, along, trans, dt, dx, manning, nonlinear=True, dry=DRY_THRESHOLD,
               cap=MAX_VELOCITY, gravity=GRAVITY, g=NGHOST):
    """Eq. 2 for the flux *along* x through the faces ``(j, i)`` between cells
    ``(j, i - 1)`` and ``(j, i)``, with *trans* the flux along y; everything
    else of ``along`` as it was.  Eq. 3 is this on transposes: :func:`nlmnt2`."""
    real = z.dtype.type
    k_fric = real(gravity * manning * manning)
    dt, dx, dry, cap, gravity = (real(v) for v in (dt, dx, dry, cap, gravity))
    zero, half, quarter, one = real(0), real(0.5), real(0.25), real(1)
    exponent = 7.0 / 3.0

    def depth(j, i):
        """(the face's total depth, whether the face is open)."""
        left, right = z[j, i - 1] + h[j, i - 1], z[j, i] + h[j, i]
        if left > dry and right > dry:
            return half * (left + right), True
        if left > dry and z[j, i - 1] + h[j, i] > zero:  # over the dry cell's ground
            return z[j, i - 1] + h[j, i], True
        if right > dry and z[j, i] + h[j, i - 1] > zero:
            return z[j, i] + h[j, i - 1], True
        return zero, False

    def transverse(j, i):
        """The y flux at the x face: the mean of the four y faces around it."""
        total = trans[j, i - 1] + trans[j, i]
        total = total + trans[j + 1, i - 1]
        total = total + trans[j + 1, i]
        return quarter * total

    def fluxes(j, i):
        """(M^2 / D, M N / D) at a face; no flux through a closed one."""
        d, is_open = depth(j, i)
        if not is_open:
            return zero, zero
        d = max(d, dry)
        return along[j, i] * along[j, i] / d, along[j, i] * transverse(j, i) / d

    out = along.copy()
    with np.errstate(all="ignore"):
        for j in range(g, z.shape[0] - g):
            for i in range(g, z.shape[1] - g + 1):
                d, is_open = depth(j, i)
                d_safe = max(d, dry)
                flux = along[j, i]
                new = flux - gravity * d * dt * ((z[j, i] - z[j, i - 1]) / dx)
                if nonlinear:
                    across = transverse(j, i)
                    f, c = fluxes(j, i)
                    if flux >= zero:  # upwind: from where the water comes
                        along_x = (f - fluxes(j, i - 1)[0]) / dx
                    else:
                        along_x = (fluxes(j, i + 1)[0] - f) / dx
                    if across >= zero:
                        along_y = (c - fluxes(j - 1, i)[1]) / dx
                    else:
                        along_y = (fluxes(j + 1, i)[1] - c) / dx
                    new = new - dt * (along_x + along_y)
                    speed = np.sqrt(flux * flux + across * across)
                    friction = k_fric * speed / np.power(d_safe, exponent)
                    new = new / (one + dt * friction)
                if not is_open:
                    new = zero
                limit = cap * d_safe
                out[j, i] = min(max(new, -limit), limit) if new == new else new
    return out


def nlmnt2(z, m, n, h, dt, dx, manning, **options):
    """Eqs. 2 and 3: the y update is the x update of the transposed block."""
    new_m = x_momentum(z, h, m, n, dt, dx, manning, **options)
    new_n = x_momentum(z.T, h.T, n.T, m.T, dt, dx, manning, **options).T
    return new_m, new_n


def larger(a, b):
    """The running maximum *a* of a product after *b*: once not a number, it
    stays so; of two equal ones — ``0.0`` and ``-0.0`` — it is the newer."""
    if a != a:
        return a
    return a if a > b else b


def output(products, z, m, n, h, time, arrival_threshold=0.01, dry=DRY_THRESHOLD,
           thin=0.01, cap=MAX_VELOCITY, g=NGHOST):
    """One "update output data" of ``OutputAccumulator``'s class docstring, on
    copies of *products* (``product_arrays()``'s six): the highest level where
    there was water; the highest speed — the flux at the cell centre over the
    depth, reported only on a column deeper than *thin* and the dry threshold,
    capped; the deepest water on what was land; the first *time* the level was
    more than the threshold away from its reference."""
    real = z.dtype.type
    dry, thin, cap, threshold = (real(v) for v in (dry, thin, cap, arrival_threshold))
    zero, half = real(0), real(0.5)
    new = {key: a.copy() for key, a in products.items()}
    with np.errstate(all="ignore"):
        for j in range(z.shape[0] - 2 * g):
            for i in range(z.shape[1] - 2 * g):
                jj, ii = j + g, i + g
                level = z[jj, ii]
                depth = level + h[jj, ii]
                if depth < zero:  # the ground is above the water: none
                    depth = zero
                wet = depth > dry
                if wet:
                    new["zmax"][j, i] = larger(new["zmax"][j, i], level)
                speed = zero
                if wet and depth > thin:
                    u = half * (m[jj, ii] + m[jj, ii + 1])
                    v = half * (n[jj, ii] + n[jj + 1, ii])
                    speed = np.sqrt(u * u + v * v) / depth
                    if speed > cap:
                        speed = cap
                new["vmax"][j, i] = larger(new["vmax"][j, i], speed)
                flooded = depth if wet and new["land"][j, i] else zero
                new["inundation_max"][j, i] = larger(new["inundation_max"][j, i], flooded)
                away = abs(real(level - new["z0ref"][j, i]))
                if away > threshold and np.isinf(new["arrival_time"][j, i]):
                    new["arrival_time"][j, i] = time
    return new
