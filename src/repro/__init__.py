"""RTi-py: reproduction of "Modernizing an Operational Real-Time Tsunami
Simulator to Support Diverse Hardware Platforms" (CLUSTER 2024).

The library has two coupled halves:

* a **numerical core** (``repro.core``, ``repro.grid``, ``repro.nesting``,
  ``repro.fault``, ``repro.topo``, ``repro.xchg``, ``repro.par``): a full
  TUNAMI-N2 nonlinear shallow-water solver on 3:1 nested grids with
  wet/dry inundation, Okada fault sources, halo exchange and an
  in-process simulated MPI — runnable physics at laptop scale;

* a **performance half** (``repro.hw``, ``repro.runtime``,
  ``repro.balance``): a discrete-event model of the paper's four HPC
  systems (vector engines, CPUs, GPUs) that replays the solver's
  per-step schedule at full Kochi scale (47.2 M cells) and reproduces
  the paper's evaluation — asynchronous queues, communication tuning,
  load balancing, and the cross-platform comparison.

Quickstart::

    from repro.topo import build_mini_kochi
    from repro.core import RTiModel, SimulationConfig
    from repro.fault import GaussianSource

    mk = build_mini_kochi()
    model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
    model.set_initial_condition(GaussianSource(x0=14e3, y0=16e3))
    model.run(600)
    print(model.max_eta())
"""

from repro.lazy import exports

__version__ = "1.0.0"

__getattr__, __dir__, _lazy = exports(__name__, {
    "constants": "GRAVITY REFINEMENT_RATIO",
    "core": "RTiModel SimulationConfig",
    "fault": "GaussianSource OkadaFault nankai_like_scenario",
    "grid": "Block GridLevel NestedGrid",
    "topo": "build_kochi_grid build_mini_kochi",
})
__all__ = [*_lazy, "__version__"]
