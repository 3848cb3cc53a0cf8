"""The RTi numerical core: TUNAMI-N2 shallow-water solver on nested grids.

This package implements the governing equations of Section II-A of the
paper — the 2-D nonlinear shallow-water equations (Eqs. 1-3) discretized
with a leap-frog scheme on a staggered (Arakawa C) grid — together with the
wet/dry moving boundary, Manning bottom friction, open/wall boundary
conditions, output accumulators, and the time-integration driver whose
routine structure mirrors the paper's Figure 2 (NLMASS -> JNZ -> PTP_Z ->
NLMNT2 -> JNQ -> PTP_MN -> output/swap).

Public API
----------
:class:`BlockState`
    Double-buffered field storage for one block.
:func:`nlmass`
    Continuity update (Eq. 1).
:func:`nlmnt2`
    Momentum update (Eqs. 2-3) with upwind advection and implicit friction.
:class:`RTiModel`
    Top-level coupled nested-grid model.
:class:`SimulationConfig`
    All runtime knobs.
"""

from repro.core.state import BlockState
from repro.core.mass import nlmass
from repro.core.momentum import nlmnt2, momentum_core
from repro.core.boundary import apply_open_boundary, apply_wall_boundary
from repro.core.outputs import OutputAccumulator
from repro.core.config import SimulationConfig
from repro.lazy import exports

# The kernels above import nothing above repro.core; the model (whose step
# pipeline imports repro.nesting and repro.xchg, which import the kernels)
# binds on first access, so the import graph stays one-way.
__getattr__, __dir__, _lazy = exports(__name__, {
    "model": "CompositeMonitor RTiModel",
    "gauges": "Gauge GaugeRecorder",
})

__all__ = [
    "BlockState",
    "nlmass",
    "nlmnt2",
    "momentum_core",
    "apply_open_boundary",
    "apply_wall_boundary",
    "OutputAccumulator",
    "SimulationConfig",
    *_lazy,
]
