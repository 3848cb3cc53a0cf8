"""Incremental product streaming: partial results survive a crash.

A forecast that dies at step 1700 of 1800 should still have delivered
its gauge series up to step 1700.  :class:`ProductStreamer` appends
gauge samples to ``products/gauges.csv`` (flushed every row).

On resume, and on every rollback of the run
(:meth:`ProductStreamer.reset_baseline`), :meth:`truncate_after` rewinds
the stream to the restored snapshot's sim time so the run appends
exactly where the restored state left off — no duplicated or phantom
samples.  The gauges sample the model the run hands in, re-resolving
when a level drop replaced it.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.artifacts import publishing
from repro.errors import PersistError
from repro.core.gauges import GaugeRecorder

GAUGE_FILE = "gauges.csv"


def default_stations(grid) -> list[tuple[str, float, float]]:
    """One virtual gauge at the center of every finest-level block."""
    finest = grid.levels[-1]
    out = []
    for blk in sorted(finest.blocks, key=lambda b: b.block_id):
        x = (blk.gi0 + blk.nx / 2.0) * finest.dx
        y = (blk.gj0 + blk.ny / 2.0) * finest.dx
        out.append((f"g{blk.block_id}", x, y))
    return out


class ProductStreamer:
    """Stream the gauge series (every step) into a run store."""

    def __init__(
        self,
        store,
        model,
        stations: list[tuple[str, float, float]] | None = None,
    ) -> None:
        self.store = store
        if stations is None:
            stations = default_stations(model.grid)
        self.recorder = GaugeRecorder(model, stations)
        self.gauge_path = Path(store.products_dir) / GAUGE_FILE
        if not self.gauge_path.exists():
            names = ",".join(g.name for g in self.recorder.gauges)
            self._append_line(f"time,{names}")

    # -- writing ---------------------------------------------------------

    def _append_line(self, line: str) -> None:
        try:
            with open(self.gauge_path, "a") as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise PersistError(
                f"cannot append gauge sample to {self.gauge_path}: {exc}"
            ) from exc

    def after_step(self, model) -> None:
        """Monitor hook: sample and stream the gauges."""
        self.recorder.follow(model)
        self._sample(model)

    def _sample(self, model) -> None:
        self.recorder.record()
        self._append_line(",".join(
            [f"{model.time:.6f}"]
            + [f"{g.eta[-1]:.9e}" for g in self.recorder.gauges]
        ))

    # -- resume and rollback ---------------------------------------------

    def reset_baseline(self) -> None:
        """Rollback hook: rewind the stream to the model last handed in,
        which a rollback restored in place (a level drop keeps the clock)."""
        self.sync_resume_point(self.recorder.model)

    def sync_resume_point(self, model, eps: float = 1e-6) -> None:
        """Align the stream with a freshly restored (or fresh) model.

        Truncates samples newer than the model's time, reloads the kept
        rows into the in-memory recorder (so gauge max-eta and arrival
        times span the whole run, not just the resumed tail), then
        regenerates the restored step's own sample if the crash tore it
        away (a signal can land between the product write and the
        snapshot publish, or vice versa).
        """
        self.truncate_after(model.time, eps=eps)
        self._reload_recorder()
        if model.step_count and not self._has_row_at(model.time, eps):
            self._sample(model)

    def _reload_recorder(self) -> None:
        """Rehydrate the recorder's series from the on-disk CSV."""
        if not self.gauge_path.exists():
            return
        times: list[float] = []
        rows: list[list[float]] = []
        n = len(self.recorder.gauges)
        for line in self.gauge_path.read_text().splitlines()[1:]:
            parts = line.split(",")
            if len(parts) != n + 1:
                continue  # torn tail row
            try:
                times.append(float(parts[0]))
                rows.append([float(v) for v in parts[1:]])
            except ValueError:
                times = times[: len(rows)]
                continue
        self.recorder.restore(times, rows)

    def _has_row_at(self, time_s: float, eps: float) -> bool:
        if not self.gauge_path.exists():
            return False
        lines = self.gauge_path.read_text().splitlines()
        for line in reversed(lines[1:]):
            try:
                return abs(float(line.split(",", 1)[0]) - time_s) <= eps
            except ValueError:
                continue
        return False

    def truncate_after(self, time_s: float, eps: float = 1e-6) -> int:
        """Drop streamed samples newer than *time_s*; returns #dropped.

        Called after restoring a snapshot: samples recorded between the
        snapshot and the crash will be regenerated by the resumed run.
        """
        dropped = 0
        if self.gauge_path.exists():
            lines = self.gauge_path.read_text().splitlines()
            kept = lines[:1]  # header
            for line in lines[1:]:
                try:
                    t = float(line.split(",", 1)[0])
                except ValueError:
                    dropped += 1  # torn tail row
                    continue
                if t <= time_s + eps:
                    kept.append(line)
                else:
                    dropped += 1
            with publishing(self.gauge_path) as fh:
                fh.write("\n".join(kept) + "\n")
        return dropped
