"""Gridded building exposure (inventory) for damage estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.grid.block import Block


@dataclass(frozen=True)
class BuildingInventory:
    """Building counts per cell of one block, by construction class.

    ``counts[cls]`` is an ``(ny, nx)`` array of building counts; classes
    must match fragility-curve families (e.g. ``"wood"``, ``"rc"``).
    """

    block: Block
    counts: dict[str, np.ndarray]
    people_per_building: float = 2.4

    def __post_init__(self) -> None:
        for cls, arr in self.counts.items():
            if arr.shape != (self.block.ny, self.block.nx):
                raise ConfigurationError(
                    f"inventory class {cls!r} shape {arr.shape} != block "
                    f"({self.block.ny}, {self.block.nx})"
                )
            if (np.asarray(arr) < 0).any():
                raise ConfigurationError("building counts must be >= 0")
        if self.people_per_building <= 0:
            raise ConfigurationError("people_per_building must be positive")


def synthetic_inventory(
    block: Block,
    depth: np.ndarray,
    dx: float,
    seed: int = 0,
    coastal_density_per_km2: float = 800.0,
    wood_fraction: float = 0.75,
) -> BuildingInventory:
    """A plausible coastal building stock for one block.

    Buildings occupy *land* cells (negative still-water depth), densest
    near the shoreline and thinning inland; the mix is mostly wood with
    the remainder reinforced concrete, as in Japanese coastal towns.
    Deterministic in *seed*.
    """
    if depth.shape != (block.ny, block.nx):
        raise ConfigurationError("depth must be the block's physical cells")
    if not 0.0 <= wood_fraction <= 1.0:
        raise ConfigurationError("wood_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    land = depth < 0.0
    elevation = np.where(land, -depth, 0.0)
    # Density decays with elevation (a proxy for distance inland on a
    # sloping coast): halved every 5 m of elevation.
    density = coastal_density_per_km2 * np.exp(-elevation / 7.2)
    cell_km2 = (dx / 1000.0) ** 2
    lam = np.where(land, density * cell_km2, 0.0)
    total = rng.poisson(lam).astype(float)
    wood = np.floor(total * wood_fraction)
    rc = total - wood
    return BuildingInventory(block=block, counts={"wood": wood, "rc": rc})
