"""Tsunami source models.

The operational RTi pipeline estimates a fault model in the first ten
minutes after an earthquake and uses the co-seismic sea-floor displacement
as the simulation's initial condition.  We implement the standard analytic
machinery:

* :class:`OkadaFault` / :func:`okada_displacement` — Okada (1985) surface
  deformation of a rectangular dislocation in an elastic half space;
* :class:`GaussianSource` — a simple analytic hump for tests and examples;
* :func:`nankai_like_scenario` — a preset multi-segment thrust resembling a
  Nankai-trough event, scaled to a given domain.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "okada": "OkadaFault okada_displacement",
    "scenarios": "GaussianSource nankai_like_scenario"
                 " initial_eta_for_block",
})
