"""Parametric synthetic bathymetry.

TUNAMI convention: still-water depth ``h`` is *positive below sea level* and
negative on land (so total depth is ``D = h + eta``).  The generators here
are smooth analytic functions of physical position, so every grid level
samples a consistent sea floor regardless of resolution — exactly what the
nested-grid coupling requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ShelfBathymetry:
    """Continental-shelf depth profile with a sinusoidal coastline.

    The sea floor deepens away from the coast (which runs along the x-axis
    at ``y = coast_y + coast_amplitude*sin(2*pi*x/coast_wavelength)``):

    * on land (``y < coastline``): elevation rises linearly at
      ``land_slope`` (``h`` negative);
    * offshore: depth follows a tanh shelf profile saturating at
      ``ocean_depth``.

    Parameters are in meters.
    """

    ocean_depth: float = 4000.0
    shelf_width: float = 80_000.0
    coast_y: float = 100_000.0
    coast_amplitude: float = 20_000.0
    coast_wavelength: float = 400_000.0
    land_slope: float = 0.01

    def __post_init__(self) -> None:
        if self.ocean_depth <= 0:
            raise ConfigurationError("ocean_depth must be positive")
        if self.shelf_width <= 0:
            raise ConfigurationError("shelf_width must be positive")
        if self.land_slope < 0:
            raise ConfigurationError("land_slope must be non-negative")

    def coastline(self, x: np.ndarray | float) -> np.ndarray | float:
        """y-coordinate of the shoreline at position *x*."""
        return self.coast_y + self.coast_amplitude * np.sin(
            2.0 * np.pi * np.asarray(x, dtype=float) / self.coast_wavelength
        )

    def depth(
        self, x: np.ndarray | float, y: np.ndarray | float
    ) -> np.ndarray:
        """Still-water depth at physical position(s) — positive = submerged.

        Accepts broadcasting inputs; returns an array of the broadcast
        shape.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dist = y - self.coastline(x)  # >0 offshore, <0 on land
        offshore = self.ocean_depth * np.tanh(
            np.maximum(dist, 0.0) / self.shelf_width
        )
        onshore = self.land_slope * dist  # negative (elevation above sea)
        return np.where(dist >= 0.0, offshore, onshore)

    def sample_cells(
        self, x0: float, y0: float, nx: int, ny: int, dx: float
    ) -> np.ndarray:
        """Cell-centered depth array of shape ``(ny, nx)``.

        ``(x0, y0)`` is the lower-left corner of the sampled rectangle and
        *dx* the (square) cell size.
        """
        xs = x0 + (np.arange(nx) + 0.5) * dx
        ys = y0 + (np.arange(ny) + 0.5) * dx
        return self.depth(xs[None, :], ys[:, None])
