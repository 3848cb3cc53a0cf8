"""Preset tsunami sources for examples, tests and benchmarks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.fault.okada import OkadaFault, okada_displacement
from repro.grid.block import Block


@dataclass(frozen=True)
class GaussianSource:
    """Analytic initial water-surface hump ``a * exp(-r^2 / (2 sigma^2))``.

    Useful for convergence and symmetry tests where an exact, smooth and
    compact initial condition is preferable to a fault model.
    """

    x0: float
    y0: float
    amplitude: float = 2.0
    sigma: float = 20_000.0

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")

    def eta(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Initial water level at position(s)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r2 = (x - self.x0) ** 2 + (y - self.y0) ** 2
        return self.amplitude * np.exp(-r2 / (2.0 * self.sigma**2))


def nankai_like_scenario(
    domain_x: float,
    domain_y: float,
    magnitude_scale: float = 1.0,
    n_segments: int = 3,
) -> list[OkadaFault]:
    """A multi-segment offshore thrust resembling a Nankai-trough rupture.

    Segments are laid out along-strike parallel to the coast (the x-axis),
    offshore of the domain center, dipping landward — the geometry of the
    megathrust events the Kochi forecast model targets.

    Parameters
    ----------
    domain_x, domain_y:
        Physical domain extent [m]; segments are placed relative to it.
    magnitude_scale:
        Multiplies slip (1.0 gives ~4 m slip segments, a large but not
        extreme event for a regional model).
    n_segments:
        Number of en-echelon segments.
    """
    if n_segments < 1:
        raise ConfigurationError("need at least one fault segment")
    seg_len = 0.5 * domain_x / n_segments
    faults = []
    for k in range(n_segments):
        cx = 0.25 * domain_x + (k + 0.5) * seg_len
        faults.append(
            OkadaFault(
                x0=cx,
                y0=0.70 * domain_y,
                depth_top=5_000.0 + 1_000.0 * k,
                strike_deg=90.0,  # along +x
                dip_deg=12.0,
                rake_deg=90.0,  # pure thrust
                slip=4.0 * magnitude_scale,
                length=seg_len,
                width=min(60_000.0, 0.2 * domain_y),
            )
        )
    return faults


def initial_eta_for_block(
    sources: "list[OkadaFault] | GaussianSource",
    block: Block,
    dx: float,
    depth: np.ndarray | None = None,
) -> np.ndarray:
    """Initial water level over one block's physical cells, shape (ny, nx).

    For fault sources, the vertical sea-floor displacement is transferred
    to the water surface (the standard instantaneous-rupture assumption).
    If *depth* is given, the displacement is only applied on wet cells —
    co-seismic uplift of dry land does not displace water.
    """
    xs = (block.gi0 + np.arange(block.nx) + 0.5) * dx
    ys = (block.gj0 + np.arange(block.ny) + 0.5) * dx
    xg = xs[None, :]
    yg = ys[:, None]
    if isinstance(sources, GaussianSource):
        eta = np.broadcast_to(sources.eta(xg, yg), (block.ny, block.nx)).copy()
    else:
        eta = np.zeros((block.ny, block.nx))
        for fault in sources:
            _ux, _uy, uz = okada_displacement(fault, xg, yg)
            eta += np.broadcast_to(uz, eta.shape)
    if depth is not None:
        eta = np.where(np.asarray(depth) > 0.0, eta, 0.0)
    return eta


def impose_source(states: dict, sources) -> None:
    """Impose a tsunami source on every block state of ``{block_id: state}``."""
    for st in states.values():
        st.set_initial_eta(
            initial_eta_for_block(
                sources, st.block, st.dx, depth=st.depth_interior()
            )
        )


def moment_magnitude(faults: list[OkadaFault], rigidity: float = 3.0e10) -> float:
    """Moment magnitude Mw of a multi-segment source (Hanks & Kanamori)."""
    m0 = sum(rigidity * f.slip * f.length * f.width for f in faults)
    if m0 <= 0:
        raise ConfigurationError("total seismic moment must be positive")
    return (2.0 / 3.0) * (math.log10(m0) - 9.1)
