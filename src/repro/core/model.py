"""RTiModel — the coupled nested-grid time integrator.

One :meth:`RTiModel.step` is one pass of the routine pipeline of the
paper's Figure 2, whose single body is
:func:`repro.core.pipeline.run_step`.  This class is its one-owner case:
every block lives in this process, so every seam and nesting link takes
the in-process operator and no communicator is involved.

This class is the *numerical* model (single process, laptop scale).  The
distributed performance replay of the same pipeline lives in
:mod:`repro.runtime`.
"""

from __future__ import annotations

import time as _time

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.outputs import OutputAccumulator
from repro.core.pipeline import build_step_plan, make_block_state, run_step
from repro.core.state import BlockState, max_wet_eta
from repro.errors import ConfigurationError
from repro.fault.scenarios import impose_source
from repro.grid.hierarchy import NestedGrid
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.topo.bathymetry import ShelfBathymetry

_TRACER = get_tracer()


class CompositeMonitor:
    """Fan one ``after_step`` hook out to several monitors, in order.

    Lets a health monitor, a gauge recorder, and a physics sampler ride
    the same :meth:`RTiModel.run` hook without wrapping hacks.  Any
    monitor may raise (typically
    :class:`~repro.errors.NumericalError`) to abort the run; later
    monitors in the list are then skipped, matching single-monitor
    semantics.  ``reset_baseline`` — called by the recovery engine after
    a rollback or a level drop — propagates to every child that has one.
    Monitors without an ``after_step`` method are rejected up front.
    """

    def __init__(self, monitors) -> None:
        self.monitors = list(monitors)
        for mon in self.monitors:
            if not callable(getattr(mon, "after_step", None)):
                raise ConfigurationError(
                    f"monitor {mon!r} has no after_step(model) method"
                )

    def after_step(self, model: "RTiModel") -> None:
        for mon in self.monitors:
            mon.after_step(model)

    def reset_baseline(self) -> None:
        for mon in self.monitors:
            reset = getattr(mon, "reset_baseline", None)
            if callable(reset):
                reset()


class RTiModel:
    """Coupled TUNAMI-N2 model on a validated nested grid.

    Parameters
    ----------
    grid:
        The nested grid hierarchy.
    bathymetry:
        Any object with ``sample_cells(x0, y0, nx, ny, dx) -> (ny, nx)``
        (e.g. :class:`repro.topo.ShelfBathymetry`).
    config:
        Runtime knobs; ``config.dt`` is validated against the CFL bound of
        every grid level at construction.
    """

    def __init__(
        self,
        grid: NestedGrid,
        bathymetry: ShelfBathymetry,
        config: SimulationConfig | None = None,
    ) -> None:
        self.grid = grid
        self.bathymetry = bathymetry
        self.config = config or SimulationConfig()
        self.time = 0.0
        self.step_count = 0
        #: Output-accumulation cadence in steps; the deadline supervisor
        #: raises it ("coarsen output") to shed the OUTPUT phase's cost.
        self.output_every = 1

        self.states: dict[int, BlockState] = {
            blk.block_id: make_block_state(grid, bathymetry, self.config, blk)
            for lvl in grid.levels
            for blk in lvl.blocks
        }
        # Static exchange plan, and the ownership view that makes this
        # model the one-owner case of the shared step body.
        self._plan = build_step_plan(grid, self.config)
        self._owner = dict.fromkeys(self.states, 0)

        self.outputs: dict[int, OutputAccumulator] = {}
        self._init_outputs()

        # Telemetry (armed via repro.obs.enable()): metric handles are
        # resolved lazily on the first observed step so a disabled run
        # never touches the registry.
        self._n_cells = sum(
            st.block.nx * st.block.ny for st in self.states.values()
        )
        self._obs_metrics = None
        self._obs_wall_s = 0.0
        self._obs_steps = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _init_outputs(self) -> None:
        for bid, st in self.states.items():
            # Views of the live state: the accumulator keeps copies of its own.
            self.outputs[bid] = OutputAccumulator(
                st.block, st.depth_interior(), st.eta_interior()
            )

    def set_initial_condition(self, source) -> None:
        """Impose a tsunami source on every block of every level.

        *source* is a :class:`~repro.fault.GaussianSource` or a list of
        :class:`~repro.fault.OkadaFault` segments.
        """
        impose_source(self.states, source)
        self._init_outputs()

    # ------------------------------------------------------------------
    # One leap-frog step (Fig. 2 pipeline)
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the coupled model by one time step.

        ``time`` and ``step_count`` advance only when the step completes.
        """
        obs_on = _TRACER.enabled
        if obs_on:
            t0 = _time.perf_counter()
        now = self.time + self.config.dt
        due = (self.step_count + 1) % self.output_every == 0
        run_step(
            self._plan, self.states, self._owner, self.config,
            outputs=self.outputs if due else None, time=now,
        )
        self.time = now
        self.step_count += 1
        if obs_on:
            self._observe_step(_time.perf_counter() - t0)

    def _observe_step(self, wall_s: float) -> None:
        """Fold one step into the process metrics registry (obs armed)."""
        m = self._obs_metrics
        if m is None:
            reg = get_registry()
            m = self._obs_metrics = (
                reg.counter("repro_steps_total", "model steps integrated"),
                reg.counter("repro_cells_total", "cell updates performed"),
                reg.histogram(
                    "repro_step_seconds", "wall time of one model step"
                ),
                reg.gauge(
                    "repro_steps_per_second", "sustained step throughput"
                ),
                reg.gauge(
                    "repro_cells_per_second",
                    "sustained cell-update throughput",
                ),
            )
        steps, cells, hist, sps, cps = m
        steps.inc()
        cells.inc(self._n_cells)
        hist.observe(wall_s)
        self._obs_wall_s += wall_s
        self._obs_steps += 1
        if self._obs_wall_s > 0:
            sps.set(self._obs_steps / self._obs_wall_s)
            cps.set(self._obs_steps * self._n_cells / self._obs_wall_s)

    def run(self, n_steps: int | None = None, monitor=None) -> None:
        """Integrate *n_steps* (default: ``config.n_steps``) steps.

        The bare loop: step, then *monitor*'s ``after_step(model)`` — a
        :class:`repro.resilience.HealthMonitor`, a gauge recorder, a
        product streamer — which may raise (typically
        :class:`~repro.errors.NumericalError`) to abort the run.  A list
        or tuple of such objects is wrapped in a :class:`CompositeMonitor`
        so several observers compose.

        Checkpoints, disk spills, signal capture and rollback belong to
        the one guarded loop,
        :class:`repro.resilience.recovery.RecoveryEngine`.
        """
        steps = self.config.n_steps if n_steps is None else n_steps
        if steps < 0:
            raise ConfigurationError("n_steps must be non-negative")
        if isinstance(monitor, (list, tuple)):
            monitor = CompositeMonitor(monitor)
        for _ in range(steps):
            self.step()
            if monitor is not None:
                monitor.after_step(self)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def total_volume(self) -> float:
        """Total water volume over all level-1 blocks [m^3].

        Level 1 covers the whole domain; finer levels overlap it, so
        conservation statements are made on level 1 only.
        """
        return sum(
            self.states[blk.block_id].volume()
            for blk in self.grid.level(1).blocks
        )

    def max_eta(self, level: int | None = None) -> float:
        """Maximum current water level over wet cells [m]."""
        out = -np.inf
        for lvl in self.grid.levels:
            if level is not None and lvl.index != level:
                continue
            for blk in lvl.blocks:
                st = self.states[blk.block_id]
                out = max(out, max_wet_eta(
                    st.eta_interior(), st.depth_interior(),
                    self.config.dry_threshold,
                ))
        return out

    def max_speed(self) -> float:
        """Maximum accumulated flow speed over all blocks [m/s]."""
        return max(float(acc.vmax.max()) for acc in self.outputs.values())
