"""Output accumulators — the per-step "update output data" stage of Fig. 2.

The operational forecast products are running extrema, not snapshots: the
maximum water level, maximum flow speed, maximum inundation depth on land,
and the tsunami arrival time.  These are accumulated in place each step.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DRY_THRESHOLD, MAX_VELOCITY
from repro.core import loopnest
from repro.core.scratch import carve, each_strip, strips
from repro.grid.block import Block
from repro.grid.staggered import NGHOST


class OutputAccumulator:
    """Running forecast products for one block.

    Attributes
    ----------
    zmax:
        Maximum water level [m] per cell.
    vmax:
        Maximum flow speed [m/s] per cell.
    inundation_max:
        Maximum total water depth on initially-dry land [m] per cell
        (zero on sea cells).
    arrival_time:
        First time [s] the water level deviates more than
        ``arrival_threshold`` from its initial value; ``inf`` where the
        wave never arrived.
    """

    __slots__ = (
        "block",
        "arrival_threshold",
        "zmax",
        "vmax",
        "inundation_max",
        "arrival_time",
        "_z0",
        "_land",
    )

    #: Minimum depth [m] for reporting a flow speed; operational codes do
    #: not report velocities on films thinner than ~1 cm, where M/D is
    #: numerically meaningless.
    SPEED_MIN_DEPTH = 0.01

    def __init__(
        self,
        block: Block,
        depth_interior: np.ndarray,
        initial_eta: np.ndarray,
        arrival_threshold: float = 0.01,
    ) -> None:
        ny, nx = block.ny, block.nx
        if depth_interior.shape != (ny, nx) or initial_eta.shape != (ny, nx):
            raise ValueError("accumulator fields must match block physical size")
        self.block = block
        self.arrival_threshold = float(arrival_threshold)
        # Max water level is only defined where water has been: dry land
        # starts at -inf and is promoted when (if) the flood arrives.
        self.zmax = np.where(depth_interior > 0.0, initial_eta, -np.inf)
        self.vmax = np.zeros((ny, nx))
        self.inundation_max = np.zeros((ny, nx))
        self.arrival_time = np.full((ny, nx), np.inf)
        self._z0 = initial_eta.copy()
        self._land = depth_interior < 0.0

    def update(
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
        g = nghost
        ci = slice(g, g + nx)
        # The compiled loop takes the frames NLMASS's does and the products as
        # RTiModel builds them (``loopnest.prepared``).  Of 0.0 and -0.0, this
        # NumPy's maximum keeps its second operand; the nest does, and the
        # self-check holds a level of one under a zmax of the other.
        # The products are looked up per call: a restore overwrites them in
        # place, but anybody may rebind them — to another prepared call.
        mine = (self.zmax, self.vmax, self.inundation_max, self.arrival_time, self._z0, self._land)
        call = loopnest.prepared("output", (z, m, n, hz, *mine), g, (dry_threshold,), (ny, nx))
        if call:
            fn, table = call.fn, call.table
            rest = (
                dry_threshold, self.SPEED_MIN_DEPTH, MAX_VELOCITY, self.arrival_threshold,
                float(time),
            )
            each_strip(lambda j0, j1: fn(*table, j0, j1, *rest), call.cuts, "OUTPUT")
            return

        def body(j0: int, j1: int) -> None:
            rows, cj = slice(j0, j1), slice(g + j0, g + j1)
            zi = z[cj, ci]
            (d, speed, tmp), (wet, mask, inf) = carve(z.dtype, (3, 3, zi.shape))
            np.add(zi, hz[cj, ci], out=d)
            np.maximum(d, 0.0, out=d)
            np.greater(d, dry_threshold, out=wet)

            np.maximum(self.zmax[rows], zi, out=self.zmax[rows], where=wet)

            # Cell-centered speed from face fluxes.
            np.add(m[cj, ci], m[cj, g + 1 : g + nx + 1], out=speed)
            np.multiply(0.5, speed, out=speed)
            np.add(n[cj, ci], n[g + j0 + 1 : g + j1 + 1, ci], out=tmp)
            np.multiply(0.5, tmp, out=tmp)
            # Speeds are meaningless on very thin films, and the face
            # fluxes feeding a shoreline cell may reference a much larger
            # face depth; report only where the water column is
            # resolvable, clipped to the solver's own velocity cap.
            np.hypot(speed, tmp, out=speed)
            np.maximum(d, self.SPEED_MIN_DEPTH, out=tmp)
            np.divide(speed, tmp, out=speed)
            np.greater(d, max(dry_threshold, self.SPEED_MIN_DEPTH), out=mask)
            np.invert(mask, out=mask)
            np.copyto(speed, 0.0, where=mask)
            np.minimum(speed, MAX_VELOCITY, out=speed)
            np.maximum(self.vmax[rows], speed, out=self.vmax[rows])

            np.bitwise_and(self._land[rows], wet, out=mask)
            tmp.fill(0.0)
            np.copyto(tmp, d, where=mask)
            np.maximum(self.inundation_max[rows], tmp, out=self.inundation_max[rows])

            arrival = self.arrival_time[rows]
            np.subtract(zi, self._z0[rows], out=tmp)
            np.abs(tmp, out=tmp)
            np.greater(tmp, self.arrival_threshold, out=mask)
            np.isinf(arrival, out=inf)
            np.bitwise_and(inf, mask, out=mask)
            np.copyto(arrival, time, where=mask)

        each_strip(body, strips(0, ny, nx), "OUTPUT")

    def inundated_area(self, dx: float) -> float:
        """Area of land that got wet at any time [m^2]."""
        return float((self.inundation_max > 0.0).sum()) * dx * dx

    # -- serialization (repro.persist) ------------------------------------

    def product_arrays(self) -> dict[str, np.ndarray]:
        """Every accumulator array (views) keyed for serialization.

        Includes the reference surface ``z0ref`` and the land mask so a
        restored accumulator continues arrival/inundation detection
        bitwise even if the restorer never re-applies the source.
        """
        return {
            "zmax": self.zmax,
            "vmax": self.vmax,
            "inundation_max": self.inundation_max,
            "arrival_time": self.arrival_time,
            "z0ref": self._z0,
            "land": self._land,
        }

    def load_product_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite the accumulators named in *arrays* bitwise from it."""
        targets = self.product_arrays()
        for key, src in arrays.items():
            if np.shape(src) != targets[key].shape:
                raise ValueError(
                    f"block {self.block.block_id}: product {key!r} has shape "
                    f"{np.shape(src)}, expected {targets[key].shape}"
                )
        for key, src in arrays.items():
            targets[key][...] = src
