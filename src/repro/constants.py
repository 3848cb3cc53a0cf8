"""Physical and numerical constants shared across the RTi reproduction.

All values are SI unless stated otherwise.  Numerical thresholds follow the
TUNAMI-N2 reference implementation (Goto et al. 1997; Imamura et al. 2006),
which the RTi model is built on.
"""

from __future__ import annotations

import numpy as np

#: Standard gravity [m/s^2] as used by TUNAMI-N2.
GRAVITY: float = 9.80665

#: Default Manning roughness coefficient n [s/m^(1/3)].  0.025 is the
#: standard value for natural sea bottom used in JSCE tsunami guidelines.
DEFAULT_MANNING: float = 0.025

#: Total-depth threshold below which a cell is considered dry [m].
#: TUNAMI-N2 uses 1e-5 m; fluxes through dry faces are zeroed.
DRY_THRESHOLD: float = 1.0e-5

#: Nested-grid refinement ratio between a parent and child level.  The RTi
#: model (and this paper) uses 3:1 exclusively.
REFINEMENT_RATIO: int = 3

#: The hard Courant bound: ``sqrt(2 g D_max) dt / dx`` beyond it violates
#: the CFL condition (the health check raises; the physics sentinel's CFL
#: margin is this bound minus the Courant number).
CFL_LIMIT: float = 1.0

#: Safety factor applied on top of the hard CFL bound when suggesting a
#: time step.
CFL_SAFETY: float = 0.8

#: Largest plausible wet-cell water level |eta| [m]: beyond it a run has
#: blown up (the health check and the physics sentinel both judge by it).
ETA_LIMIT: float = 100.0

#: Velocity cap [m/s] applied after the momentum update.  Operational
#: TUNAMI-class codes clamp the flow speed to keep the moving-boundary
#: scheme stable on very thin water layers.
MAX_VELOCITY: float = 20.0

#: Default floating point dtype for state arrays.  The production RTi code
#: runs in single precision on the vector engines; we default to float64 for
#: testability and expose float32 via configuration.
DEFAULT_DTYPE = np.float64

#: Seconds in the standard operational forecast horizon (six hours).
FORECAST_HORIZON_S: float = 6.0 * 3600.0

#: Operational time step of the Kochi model [s].
KOCHI_DT: float = 0.2

#: Number of time steps in a six-hour Kochi forecast.
KOCHI_STEPS: int = int(round(FORECAST_HORIZON_S / KOCHI_DT))
