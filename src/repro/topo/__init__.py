"""Synthetic topography/bathymetry and the Kochi-model grid builders.

The paper evaluates on a proprietary 10 m Kochi Prefecture dataset (Table I:
5 levels, 84 blocks, 47 211 444 cells).  We cannot redistribute that data, so
this package provides

* :class:`ShelfBathymetry` — a parametric continental-shelf depth model that
  exercises the same code paths (deep ocean, shelf, shoreline, dry land);
* :func:`build_kochi_grid` — a deterministic nested grid whose per-level
  block counts and cell counts match Table I *exactly*;
* :func:`build_mini_kochi` — a laptop-scale grid with the same 5-level,
  3:1-nested topology for running the actual numerics.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "bathymetry": "ShelfBathymetry",
    "blockgen": "split_cells_into_blocks factor_near_aspect",
    "kochi": "KOCHI_TABLE1 build_kochi_grid build_mini_kochi kochi_table",
    "autonest": "AutoNestConfig build_auto_nest",
})
