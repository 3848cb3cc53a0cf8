"""The run directory: journal + snapshots + streamed products.

Layout of one run directory::

    <rundir>/
        journal.jsonl          append-only event log (RunJournal)
        snapshots/
            ck_00001_step_00000010/   atomic snapshot directories
                level_1.npz
                ...
                manifest.json
            .tmp-…                    torn publication attempts (ignored)
        products/
            gauges.csv         incrementally streamed gauge series

Snapshot directories are sequence-numbered so a re-checkpoint of the
same step (after a rollback) gets a fresh name; "newest" always means
the highest sequence number.  :meth:`RunStore.latest_valid_snapshot`
walks newest → oldest, checksum-verifying each candidate and skipping
corrupt or torn ones with a warning — the fallback path the torn-write
tests exercise.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import PersistError
from repro.obs.log import RunEvents, ServiceEvent
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.obs.trace import span as _span
from repro.persist.journal import RunJournal, read_journal
from repro.persist.snapshot import read_snapshot, write_snapshot

if TYPE_CHECKING:
    from repro.resilience.checkpoint import Checkpoint

_SNAP_RE = re.compile(r"^ck_(\d+)_step_(\d+)$")


def run_status(events: list[dict]) -> tuple[str, str | None]:
    """The one status rule of a run journal: ``(status, refusal)``.

    *status* is ``"complete"`` once a run journaled its end, else
    ``"incomplete"`` once one started, else ``"empty"``.  *refusal* ends
    "<rundir> …" with why :func:`repro.persist.runner.resume_run` refuses
    the directory; ``None`` exactly when it would resume it.
    """
    names = {ev.get("event") for ev in events}
    status = (
        "complete" if names & {"complete", "distributed_complete"}
        else "incomplete" if names & {"run_start", "distributed_start"}
        else "empty"
    )
    start = next((ev for ev in events if ev.get("event") == "run_start"), {})
    if "distributed_start" in names:
        return status, "holds a distributed run, which cannot be resumed"
    if not isinstance(start.get("scenario"), dict):
        return status, "holds no journaled run to resume"
    if status == "complete":
        return status, "holds a run that already completed"
    if start.get("deadline_s") is not None:
        return status, (
            f"holds a run with a {start['deadline_s']:g} s deadline, counted "
            f"from its submission: it is not re-armed on a fresh clock"
        )
    return status, None


class RunStore:
    """Durable state of one forecast run, rooted at *rundir*."""

    JOURNAL_NAME = "journal.jsonl"
    SNAPSHOT_DIR = "snapshots"
    PRODUCTS_DIR = "products"

    def __init__(self, rundir: Path, create: bool = True) -> None:
        self.rundir = Path(rundir)
        if not self.rundir.exists():
            if not create:
                raise PersistError(f"run directory {self.rundir} does not exist")
            try:
                self.rundir.mkdir(parents=True)
            except OSError as exc:
                raise PersistError(
                    f"cannot create run directory {self.rundir}: {exc}"
                ) from exc
        elif not self.rundir.is_dir():
            raise PersistError(f"{self.rundir} exists and is not a directory")
        self.snapshots_dir = self.rundir / self.SNAPSHOT_DIR
        self.products_dir = self.rundir / self.PRODUCTS_DIR
        if create:
            self.snapshots_dir.mkdir(exist_ok=True)
            self.products_dir.mkdir(exist_ok=True)
        self.journal = RunJournal(self.rundir / self.JOURNAL_NAME)
        #: The run's one RunEvents, whoever emits: every journal line but
        #: the snapshot pair is one of its records.
        self.run_events = RunEvents(self)

    # -- events ----------------------------------------------------------

    def events(self) -> list[dict]:
        return self.journal.events()

    def first_event(self, name: str) -> dict | None:
        for ev in self.events():
            if ev.get("event") == name:
                return ev
        return None

    def status(self) -> str:
        """``"empty"`` | ``"incomplete"`` | ``"complete"``: :func:`run_status`."""
        return run_status(self.events())[0]

    def journal_warning(self) -> str | None:
        """The torn-tail warning for this journal, if any."""
        try:
            _, warning = read_journal(self.rundir / self.JOURNAL_NAME)
        except FileNotFoundError:
            return None
        return warning

    # -- snapshots -------------------------------------------------------

    def snapshot_paths(self) -> list[Path]:
        """Published snapshot directories, oldest first (by sequence)."""
        if not self.snapshots_dir.is_dir():
            return []
        found = []
        for child in self.snapshots_dir.iterdir():
            m = _SNAP_RE.match(child.name)
            if m and child.is_dir():
                found.append((int(m.group(1)), child))
        return [path for _, path in sorted(found)]

    def _next_seq(self) -> int:
        paths = self.snapshot_paths()
        if not paths:
            return 1
        return int(_SNAP_RE.match(paths[-1].name).group(1)) + 1

    def save_snapshot(self, model) -> Path:
        """Write a checksummed snapshot of *model* and journal it.

        The journal records intent (``checkpoint_begin``) before the
        write and the outcome (``checkpoint``) after the atomic publish,
        so a reader can tell "never attempted" from "attempted and torn".
        The pair is written straight to the journal, not into the run's
        ring: two lines a snapshot would crowd the run's decisions out.
        """
        seq = self._next_seq()
        name = f"ck_{seq:05d}_step_{model.step_count:08d}"
        obs_on = get_tracer().enabled
        if obs_on:
            import time as _time

            t0 = _time.perf_counter()
        with _span("CKPT", cat="persist", step=model.step_count,
                   snapshot=name):
            self.journal.record(ServiceEvent(None, "checkpoint_begin", fields={
                "step": model.step_count, "snapshot": name,
            }))
            path = write_snapshot(model, self.snapshots_dir / name)
            self.journal.record(ServiceEvent(None, "checkpoint", fields={
                "step": model.step_count, "time": model.time, "snapshot": name,
            }))
        if obs_on:
            get_registry().histogram(
                "repro_checkpoint_seconds",
                "wall time of one on-disk checkpoint publish",
            ).observe(_time.perf_counter() - t0)
        return path

    def latest_valid_snapshot(self, warn=None, **expect) -> Checkpoint | None:
        """Newest snapshot that passes full checksum verification.

        Corrupt, torn, or schema-incompatible candidates, and those whose
        manifest does not hold *expect* (see :func:`read_snapshot`), are
        skipped (reported via *warn*, a ``callable(str)``), falling back
        to the next older one — or ``None`` if no valid snapshot exists.
        """
        for path in reversed(self.snapshot_paths()):
            try:
                return read_snapshot(path, **expect)
            except PersistError as exc:
                if warn is not None:
                    warn(f"skipping invalid snapshot {path.name}: {exc}")
        return None
