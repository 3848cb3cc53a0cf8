"""Virtual tide gauges: water-level time series at fixed points.

Operational forecast systems validate and disseminate against coastal
tide gauges; this module records per-step water levels (and optionally
fluxes) at physical positions, choosing the finest grid level covering
each point — exactly how a nested-grid code reports station data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import RTiModel
from repro.errors import ConfigurationError
from repro.grid.staggered import NGHOST


@dataclass
class Gauge:
    """One station: a physical position plus its recorded series."""

    name: str
    x: float
    y: float
    block_id: int | None = None
    level: int | None = None
    _i: int = 0
    _j: int = 0
    times: list[float] = field(default_factory=list)
    eta: list[float] = field(default_factory=list)

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.times), np.asarray(self.eta)

    @property
    def max_eta(self) -> float:
        return max(self.eta) if self.eta else float("nan")

    def arrival_time(self, threshold: float = 0.01) -> float:
        """First recorded time [s] where eta reaches *threshold* [m].

        ``inf`` if the wave never arrived (matching the convention of
        :class:`repro.core.outputs.OutputAccumulator`), including for an
        empty series — so callers can test ``math.isinf`` uniformly
        instead of special-casing NaN.
        """
        for t, eta in zip(self.times, self.eta):
            if eta >= threshold:
                return t
        return float("inf")


class GaugeRecorder:
    """Attach to a model and call :meth:`record` after each step.

    Each gauge is resolved to the finest block covering it (again when
    :meth:`follow` is handed a new model); gauges outside every block are
    rejected at construction (an operational configuration error worth
    failing loudly on).
    """

    def __init__(
        self,
        model: RTiModel,
        stations: list[tuple[str, float, float]],
        every: int = 1,
    ):
        if every < 1:
            raise ConfigurationError("sampling interval must be >= 1")
        self.model = model
        self.every = every
        self.gauges: list[Gauge] = []
        for name, x, y in stations:
            g = Gauge(name=name, x=x, y=y)
            self._resolve(g)
            self.gauges.append(g)

    def _resolve(self, gauge: Gauge) -> None:
        # Finest level first.
        for lvl in reversed(self.model.grid.levels):
            gi = int(gauge.x // lvl.dx)
            gj = int(gauge.y // lvl.dx)
            blk = lvl.covering_block(gi, gj)
            if blk is not None:
                gauge.block_id = blk.block_id
                gauge.level = lvl.index
                gauge._i = NGHOST + gi - blk.gi0
                gauge._j = NGHOST + gj - blk.gj0
                return
        raise ConfigurationError(
            f"gauge {gauge.name!r} at ({gauge.x}, {gauge.y}) lies outside "
            f"every grid block"
        )

    def follow(self, model: RTiModel) -> None:
        """Sample *model* from now on; a new model (a level dropped)
        re-resolves every gauge to its finest covering level left."""
        if model is not self.model:
            self.model = model
            for g in self.gauges:
                self._resolve(g)

    def record(self) -> None:
        """Sample every gauge at the model's current time."""
        for g in self.gauges:
            st = self.model.states[g.block_id]
            g.times.append(self.model.time)
            g.eta.append(float(st.z_old[g._j, g._i]))

    def after_step(self, model: RTiModel) -> None:
        """Monitor hook: sample on the recorder's cadence.

        A recorder rides :meth:`RTiModel.run`'s monitor slot — alone or
        inside a :class:`~repro.core.model.CompositeMonitor`:
        ``model.run(n, monitor=recorder)``.  Pure read of ``z_old``:
        never perturbs the run.
        """
        self.follow(model)
        if model.step_count % self.every == 0:
            self.record()

    def restore(self, times: list[float], rows: list[list[float]]) -> None:
        """Reload previously recorded samples (resume support).

        *rows* holds one eta value per gauge for each entry of *times*,
        in gauge order — the shape the persist layer's ``gauges.csv``
        stores.  Replaces any in-memory history, so a resumed run's
        gauges report max eta and arrival times over the *whole* run,
        not just the tail integrated after the restart.
        """
        if any(len(row) != len(self.gauges) for row in rows):
            raise ConfigurationError(
                "gauge restore rows do not match the station list"
            )
        for k, g in enumerate(self.gauges):
            g.times = [float(t) for t in times]
            g.eta = [float(row[k]) for row in rows]

    def summary(self) -> str:
        lines = [
            f"{'gauge':>12} {'level':>5} {'max eta [m]':>12} "
            f"{'arrival [s]':>12} {'samples':>8}"
        ]
        for g in self.gauges:
            arrival = g.arrival_time()
            arr = f"{arrival:>12.1f}" if np.isfinite(arrival) else f"{'—':>12}"
            lines.append(
                f"{g.name:>12} {g.level:>5} {g.max_eta:>12.3f} "
                f"{arr} {len(g.eta):>8}"
            )
        return "\n".join(lines)
