"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    DEFAULT_MANNING,
    DRY_THRESHOLD,
    MAX_VELOCITY,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SimulationConfig:
    """Runtime knobs of the coupled model.

    Parameters
    ----------
    dt:
        Time step [s], constant across grid levels (Section II-A).
    n_steps:
        Number of leap-frog steps to integrate.
    manning:
        Manning roughness coefficient ``n`` [s/m^(1/3)].
    nonlinear:
        Include advection and bottom friction (TUNAMI-N2).  ``False``
        reduces the solver to the linear long-wave equations (the
        EasyWave-style model the paper's related work discusses).
    boundary:
        Outer boundary of grid level 1: ``"open"`` (radiating) or
        ``"wall"`` (fully reflective).
    restriction:
        Child-to-parent water-level feedback: ``"boundary"`` restricts a
        strip along the child boundary (the paper's JNZSND semantics,
        Listing 5) or ``"full"`` restricts the entire overlap (classical
        two-way nesting).
    restriction_width:
        Strip width in *parent* cells when ``restriction="boundary"``.
    dry_threshold:
        Total depth [m] below which a cell is dry.
    velocity_cap:
        Maximum flow speed [m/s] enforced after the momentum update.
    dtype:
        Floating dtype of state arrays.
    """

    dt: float = 0.2
    n_steps: int = 100
    manning: float = DEFAULT_MANNING
    nonlinear: bool = True
    boundary: str = "open"
    restriction: str = "boundary"
    restriction_width: int = 2
    dry_threshold: float = DRY_THRESHOLD
    velocity_cap: float = MAX_VELOCITY
    dtype: type = np.float64

    def __post_init__(self) -> None:
        if not 0 < self.dt < np.inf:
            raise ConfigurationError(
                f"dt must be positive and finite, got {self.dt}"
            )
        if self.n_steps < 0:
            raise ConfigurationError("n_steps must be non-negative")
        if self.manning < 0:
            raise ConfigurationError("manning must be non-negative")
        if self.boundary not in ("open", "wall"):
            raise ConfigurationError(
                f"boundary must be 'open' or 'wall', got {self.boundary!r}"
            )
        if self.restriction not in ("boundary", "full"):
            raise ConfigurationError(
                f"restriction must be 'boundary' or 'full', got "
                f"{self.restriction!r}"
            )
        if self.restriction_width < 1:
            raise ConfigurationError("restriction_width must be >= 1")
        if self.dry_threshold <= 0:
            raise ConfigurationError("dry_threshold must be positive")
        if self.velocity_cap <= 0:
            raise ConfigurationError("velocity_cap must be positive")

    # -- serialization (repro.persist journal round-trip) -----------------

    def to_dict(self) -> dict:
        """JSON-serializable image of the config (dtype by name)."""
        return {
            "dt": self.dt,
            "n_steps": self.n_steps,
            "manning": self.manning,
            "nonlinear": self.nonlinear,
            "boundary": self.boundary,
            "restriction": self.restriction,
            "restriction_width": self.restriction_width,
            "dry_threshold": self.dry_threshold,
            "velocity_cap": self.velocity_cap,
            "dtype": np.dtype(self.dtype).name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        """Inverse of :meth:`to_dict` (unknown keys rejected loudly)."""
        kwargs = dict(data)
        if "dtype" in kwargs:
            try:
                kwargs["dtype"] = np.dtype(kwargs["dtype"]).type
            except TypeError as exc:
                raise ConfigurationError(
                    f"unknown dtype {kwargs['dtype']!r}"
                ) from exc
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(f"bad config entry: {exc}") from exc
