"""Scenario specs: one JSON object fully describes a run.

This module is the only code that turns a spec into a grid, bathymetry,
``dt``/``n_steps`` and a source, so a spec means one run wherever it
enters: ``repro validate`` (preflight), ``repro forecast`` in every mode
and ``repro submit`` (the spec their flags describe), the ``run_start``
journal event ``repro resume`` rebuilds from, ``repro retune --grid``,
and the service, which refuses at submit what this module refuses,
prices the grid and step count, and runs it on ``LocalBackend``.

==============  ==========================================================
key             meaning; default
==============  ==========================================================
``grid``        ``"mini-kochi"`` (default; laptop-scale Kochi),
                ``"kochi"`` (Table I) or inline ``{"ratio": 3, "levels":
                [{"index", "dx", "blocks": [[block_id, level, gi0, gj0,
                nx, ny], ...]}, ...]}``.
``bathymetry``  ``{"type": "flat", "depth"}``, ``{"type": "sloped",
                "offshore_depth", "slope"}`` or ``{"type": "shelf",
                ...ShelfBathymetry kwargs}``; default mini-Kochi's shelf,
                which only ``"mini-kochi"`` has.
``dt``          Time step [s], positive and finite; default mini-Kochi's
                0.1 s on ``"mini-kochi"``, else the Kochi model's
                operational 0.2 s.
``n_steps``     Default ``round(minutes * 60 / dt)`` when ``minutes`` is
                given, else 100.
``source``      Default none (a sea at rest).  ``{"type": "gaussian",
                "x0", "y0", "amplitude", "sigma"}``, defaults
                :data:`GAUSSIAN_DEFAULTS` (the built-in source of
                ``repro forecast`` and ``repro submit``), or ``{"type":
                "nankai", "magnitude_scale", "n_segments"}``, defaults
                :data:`NANKAI_DEFAULTS`, laid out over level 1.
``ranks``       Optional; read only by preflight's decomposition check.
==============  ==========================================================

The service also prices synthetic specs that carry per-level block cell
counts inline (``cells_by_level``); those are never built.  A malformed
entry ends in :class:`~repro.errors.ConfigurationError` (or the grid's
own :class:`~repro.errors.GridError`), never a bare Python error.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.artifacts import load_json_artifact
from repro.errors import ConfigurationError, ReproError
from repro.core.config import SimulationConfig
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel

#: Source fields a spec may leave out.  The gaussian is a 2 m hump of
#: σ = 2.5 km off the mini-Kochi coast, in the key order the CLI's
#: journaled spec spells.
GAUSSIAN_DEFAULTS = {"x0": 4_000.0, "y0": 16_000.0, "amplitude": 2.0,
                     "sigma": 2_500.0}
NANKAI_DEFAULTS = {"magnitude_scale": 1.0, "n_segments": 3}


@dataclass
class BuiltScenario:
    """A spec dict realized into runnable collaborators."""

    spec: dict
    grid: NestedGrid
    bathymetry: object
    config: SimulationConfig
    source: object
    n_steps: int


@contextmanager
def _entry(name: str):
    """Turn a malformed entry's Python error into a ConfigurationError."""
    try:
        yield
    except ReproError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError,
            ArithmeticError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigurationError(f"malformed {name} entry: {detail}") from exc


def _kind(spec, name: str):
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{name} must be an object, got {spec!r}")
    return spec.get("type")


def load_scenario(path: Path) -> dict:
    """Read a scenario spec from a JSON file."""
    return load_json_artifact(path, what="a scenario spec")


def build_grid(spec="mini-kochi") -> NestedGrid:
    """Realize the ``grid`` entry (named grid or inline dict)."""
    if spec in (None, "mini-kochi"):
        from repro.topo import build_mini_kochi

        return build_mini_kochi().grid
    if spec == "kochi":
        from repro.topo import build_kochi_grid

        return build_kochi_grid()
    if not isinstance(spec, dict) or "levels" not in spec:
        raise ConfigurationError(
            "grid must be 'mini-kochi', 'kochi' or a dict with a 'levels' "
            f"list, got {spec!r}"
        )
    with _entry("grid"):
        levels = [
            GridLevel(
                index=int(lv["index"]), dx=float(lv["dx"]),
                blocks=[Block(*[int(v) for v in b]) for b in lv.get("blocks", [])],
            )
            for lv in spec["levels"]
        ]
        return NestedGrid(levels=levels, ratio=int(spec.get("ratio", 3)))


def build_bathymetry(spec, grid="mini-kochi"):
    """Realize the ``bathymetry`` entry; *grid* is the spec's ``grid`` entry."""
    if spec is None:
        if grid in (None, "mini-kochi"):
            from repro.topo import build_mini_kochi

            return build_mini_kochi().bathymetry
        raise ConfigurationError("only mini-kochi has a default bathymetry")
    kind = _kind(spec, "bathymetry")
    with _entry("bathymetry"):
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


def build_config(spec: dict) -> SimulationConfig:
    """Realize ``dt`` and ``n_steps`` (or ``minutes``) of a spec."""
    with _entry("dt/n_steps"):
        dt = spec.get("dt")
        if dt is not None:
            dt = float(dt)
        elif spec.get("grid") in (None, "mini-kochi"):
            from repro.topo import build_mini_kochi

            dt = build_mini_kochi().dt
        else:
            from repro.topo.kochi import KOCHI_DT as dt
        config = SimulationConfig(dt=dt)  # refuses a bad dt first
        if "n_steps" in spec:
            n_steps = int(spec["n_steps"])
        elif "minutes" in spec:
            n_steps = round(float(spec["minutes"]) * 60.0 / dt)
        else:
            n_steps = 100
        return dataclasses.replace(config, n_steps=n_steps)


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
    kind = _kind(spec, "source")
    with _entry("source"):
        if kind == "gaussian":
            from repro.fault import GaussianSource

            return GaussianSource(**{
                k: float(spec.get(k, v)) for k, v in GAUSSIAN_DEFAULTS.items()
            })
        if kind == "nankai":
            from repro.fault import nankai_like_scenario

            kw = {k: spec.get(k, v) for k, v in NANKAI_DEFAULTS.items()}
            return nankai_like_scenario(
                *domain_extent(grid),
                magnitude_scale=float(kw["magnitude_scale"]),
                n_segments=int(kw["n_segments"]),
            )
    raise ConfigurationError(
        f"source type must be 'gaussian' or 'nankai', got {kind!r}"
    )


def build_scenario(spec: dict) -> BuiltScenario:
    """Realize a full spec; raises library errors on invalid entries.

    (Use :func:`repro.persist.preflight.validate_scenario` instead when
    you want *all* problems collected rather than the first raised.)
    """
    if not isinstance(spec, dict):
        raise ConfigurationError(f"a scenario spec is an object, got {spec!r}")
    grid_spec = spec.get("grid", "mini-kochi")
    grid = build_grid(grid_spec)
    config = build_config(spec)
    return BuiltScenario(
        spec=spec,
        grid=grid,
        bathymetry=build_bathymetry(spec.get("bathymetry"), grid_spec),
        config=config,
        source=build_source(spec.get("source"), grid),
        n_steps=config.n_steps,
    )
