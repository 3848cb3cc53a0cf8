"""Serializable scenario specs: one JSON object fully describes a run.

The same spec dict is (a) what ``repro validate`` screens before any
stepping, (b) what ``repro forecast --rundir`` records in the journal's
``run_start`` event, and (c) what ``repro resume`` rebuilds the model
from — so a resumed forecast is constructed through exactly the same
deterministic code path as the original.

Spec keys
---------
``grid``
    ``"mini-kochi"`` (the shipped laptop-scale Kochi topology) or an
    inline dict ``{"ratio": 3, "levels": [{"index", "dx", "blocks":
    [[block_id, level, gi0, gj0, nx, ny], ...]}, ...]}``.
``bathymetry``
    Optional; defaults to the mini-Kochi shelf.  ``{"type": "flat",
    "depth": d}``, ``{"type": "sloped", "offshore_depth", "slope"}`` or
    ``{"type": "shelf", ...ShelfBathymetry kwargs...}``.
``dt``, ``n_steps``
    Time step [s] and step count (``minutes`` may replace ``n_steps``).
``source``
    ``{"type": "gaussian", "x0", "y0", "amplitude", "sigma"}`` or
    ``{"type": "nankai", "magnitude_scale", "n_segments"}``.
``ranks``
    Optional rank count; used only by preflight decomposition checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from repro.artifacts import load_json_artifact
from repro.errors import ConfigurationError
from repro.core.config import SimulationConfig
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel


@dataclass
class BuiltScenario:
    """A spec dict realized into runnable collaborators."""

    spec: dict
    grid: NestedGrid
    bathymetry: object
    config: SimulationConfig
    source: object
    n_steps: int


def load_scenario(path: Path) -> dict:
    """Read a scenario spec from a JSON file."""
    return load_json_artifact(path, what="a scenario spec")


def build_grid(spec) -> NestedGrid:
    """Realize the ``grid`` entry (named builder or inline dict)."""
    if spec in (None, "mini-kochi"):
        from repro.topo import build_mini_kochi

        return build_mini_kochi().grid
    if isinstance(spec, str):
        raise ConfigurationError(
            f"unknown named grid {spec!r}; only 'mini-kochi' is shipped"
        )
    if not isinstance(spec, dict) or "levels" not in spec:
        raise ConfigurationError(
            "inline grid spec must be a dict with a 'levels' list"
        )
    levels = []
    for lv in spec["levels"]:
        blocks = [Block(*[int(v) for v in b]) for b in lv.get("blocks", [])]
        levels.append(
            GridLevel(index=int(lv["index"]), dx=float(lv["dx"]), blocks=blocks)
        )
    return NestedGrid(levels=levels, ratio=int(spec.get("ratio", 3)))


def build_bathymetry(spec, grid_name=None):
    """Realize the ``bathymetry`` entry; defaults follow the grid."""
    if spec is None:
        if grid_name == "mini-kochi":
            from repro.topo import build_mini_kochi

            return build_mini_kochi().bathymetry
        raise ConfigurationError(
            "an inline grid needs an explicit 'bathymetry' entry"
        )
    kind = spec.get("type")
    if kind == "flat":
        from repro.validation import FlatBathymetry

        return FlatBathymetry(depth=float(spec["depth"]))
    if kind == "sloped":
        from repro.validation import SlopedBathymetry

        return SlopedBathymetry(
            offshore_depth=float(spec["offshore_depth"]),
            slope=float(spec["slope"]),
        )
    if kind == "shelf":
        from repro.topo.bathymetry import ShelfBathymetry

        kwargs = {k: float(v) for k, v in spec.items() if k != "type"}
        return ShelfBathymetry(**kwargs)
    raise ConfigurationError(
        f"bathymetry type must be 'flat', 'sloped' or 'shelf', got {kind!r}"
    )


def domain_extent(grid: NestedGrid) -> tuple[float, float]:
    """Physical (x, y) extent [m] covered by grid level 1."""
    lvl = grid.level(1)
    x = max((b.gi0 + b.nx) * lvl.dx for b in lvl.blocks)
    y = max((b.gj0 + b.ny) * lvl.dx for b in lvl.blocks)
    return x, y


def build_source(spec, grid: NestedGrid):
    """Realize the ``source`` entry (``None`` stays ``None``)."""
    if spec is None:
        return None
    kind = spec.get("type")
    if kind == "gaussian":
        from repro.fault import GaussianSource

        return GaussianSource(
            x0=float(spec["x0"]),
            y0=float(spec["y0"]),
            amplitude=float(spec.get("amplitude", 2.0)),
            sigma=float(spec.get("sigma", 20_000.0)),
        )
    if kind == "nankai":
        from repro.fault import nankai_like_scenario

        dx, dy = domain_extent(grid)
        return nankai_like_scenario(
            dx,
            dy,
            magnitude_scale=float(spec.get("magnitude_scale", 1.0)),
            n_segments=int(spec.get("n_segments", 3)),
        )
    raise ConfigurationError(
        f"source type must be 'gaussian' or 'nankai', got {kind!r}"
    )


def build_scenario(spec: dict) -> BuiltScenario:
    """Realize a full spec; raises library errors on invalid entries.

    (Use :func:`repro.persist.preflight.validate_scenario` instead when
    you want *all* problems collected rather than the first raised.)
    """
    grid_spec = spec.get("grid", "mini-kochi")
    grid = build_grid(grid_spec)
    grid_name = grid_spec if isinstance(grid_spec, str) else None
    if grid_spec is None:
        grid_name = "mini-kochi"
    bathymetry = build_bathymetry(spec.get("bathymetry"), grid_name)

    dt = spec.get("dt")
    if dt is None:
        from repro.topo import build_mini_kochi

        dt = build_mini_kochi().dt if grid_name == "mini-kochi" else 0.2
    dt = float(dt)
    if "n_steps" in spec:
        n_steps = int(spec["n_steps"])
    elif "minutes" in spec:
        n_steps = int(math.ceil(float(spec["minutes"]) * 60.0 / dt))
    else:
        n_steps = 100
    if n_steps < 0:
        raise ConfigurationError("n_steps must be non-negative")
    config = SimulationConfig(dt=dt, n_steps=n_steps)
    source = build_source(spec.get("source"), grid)
    return BuiltScenario(
        spec=spec,
        grid=grid,
        bathymetry=bathymetry,
        config=config,
        source=source,
        n_steps=n_steps,
    )
