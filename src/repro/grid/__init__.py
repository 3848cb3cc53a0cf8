"""Nested staggered-grid substrate for the RTi model.

The RTi model discretizes the shallow-water equations on an Arakawa C grid
(water level at cell centers, discharge fluxes at faces) organized as a
system of nested grid levels with a fixed 3:1 refinement ratio.  Each level
consists of one or more rectangular *blocks* (the paper's ``KK`` loop
iterates over these blocks).

Public API
----------
:class:`Block`
    One rectangular patch of a grid level.
:class:`GridLevel`
    All blocks sharing one spatial resolution.
:class:`NestedGrid`
    The full hierarchy with nesting validation and parent/child links.
:func:`cfl_time_step` / :func:`check_cfl`
    Courant-Friedrichs-Lewy condition (Eq. 4 of the paper).
"""

from repro.grid.block import Block
from repro.grid.level import GridLevel
from repro.grid.hierarchy import NestedGrid
from repro.grid.cfl import cfl_time_step, check_cfl, max_wave_speed
from repro.grid.staggered import (
    eta_shape,
    flux_m_shape,
    flux_n_shape,
    interior,
    NGHOST,
)

__all__ = [
    "Block",
    "GridLevel",
    "NestedGrid",
    "cfl_time_step",
    "check_cfl",
    "max_wave_speed",
    "eta_shape",
    "flux_m_shape",
    "flux_n_shape",
    "interior",
    "NGHOST",
]
