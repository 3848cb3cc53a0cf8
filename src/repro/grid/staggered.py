"""Index arithmetic for the staggered (Arakawa C) grid with ghost cells.

Layout per block of ``ny x nx`` physical cells, with ``NGHOST`` ghost layers
on every side:

* ``eta`` (water level, cell centers): shape ``(ny + 2G, nx + 2G)``
* ``M`` (x-discharge flux, vertical faces): shape ``(ny + 2G, nx + 1 + 2G)``
* ``N`` (y-discharge flux, horizontal faces): shape ``(ny + 1 + 2G, nx + 2G)``

Arrays are C-ordered with axis 0 = y and axis 1 = x, so the *innermost*
(contiguous) axis is x.  This mirrors the paper's ``J``/``I`` loop nest in
Listing 1 (outer loop over one direction, inner vectorized loop over the
other); the original code is explicitly configurable in which direction is
inner, so the choice does not affect fidelity.
"""

from __future__ import annotations

#: Number of ghost layers.  The TUNAMI-N2 upwind advection of a face needs
#: its neighbor faces' flux *and* their total depths, so reproducing a
#: monolithic grid across block seams requires two ghost layers.
NGHOST: int = 2


def eta_shape(ny: int, nx: int, nghost: int = NGHOST) -> tuple[int, int]:
    """Array shape of a cell-centered field (eta, depth, ...) with ghosts."""
    return (ny + 2 * nghost, nx + 2 * nghost)


def flux_m_shape(ny: int, nx: int, nghost: int = NGHOST) -> tuple[int, int]:
    """Array shape of the x-flux field M (on vertical faces) with ghosts."""
    return (ny + 2 * nghost, nx + 1 + 2 * nghost)


def flux_n_shape(ny: int, nx: int, nghost: int = NGHOST) -> tuple[int, int]:
    """Array shape of the y-flux field N (on horizontal faces) with ghosts."""
    return (ny + 1 + 2 * nghost, nx + 2 * nghost)


def interior(ny: int, nx: int, nghost: int = NGHOST) -> tuple[slice, slice]:
    """Slices selecting the physical cells of a cell-centered array."""
    return (slice(nghost, nghost + ny), slice(nghost, nghost + nx))
