"""Numerical validation harness for the shallow-water core.

Canonical checks a credible tsunami solver must pass:

* analytic linear solutions (standing wave, radiating wave speed);
* lake-at-rest well-balancedness (no spurious motion over bathymetry);
* mass conservation in closed basins;
* grid-convergence of the leap-frog scheme.
"""

from repro.validation.analytic import (
    FlatBathymetry,
    SlopedBathymetry,
    standing_wave_solution,
    single_block_model,
)
from repro.validation.conservation import (
    mass_residual,
    lake_at_rest_residual,
)

__all__ = [
    "FlatBathymetry",
    "SlopedBathymetry",
    "standing_wave_solution",
    "single_block_model",
    "mass_residual",
    "lake_at_rest_residual",
]
