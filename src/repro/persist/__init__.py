"""Durable, crash-safe run persistence for the RTi reproduction.

The operational premise of the paper — an inundation forecast within
minutes of the earthquake — makes losing a run to a node crash or a
malformed input unacceptable.  This package provides:

* :mod:`~repro.persist.snapshot` — versioned, per-array-checksummed
  snapshots (compressed npz per level + JSON manifest) published
  atomically; reading one gives a
  :class:`~repro.resilience.checkpoint.Checkpoint`, restored bitwise;
* :mod:`~repro.persist.journal` — a write-ahead JSONL run journal
  (fsync per event, torn-tail tolerant);
* :class:`RunStore` — the run directory tying journal, snapshots and
  streamed products together, with newest-*valid*-snapshot selection;
* :mod:`~repro.persist.preflight` — the input validation gauntlet
  producing actionable multi-error :class:`Finding` diagnostics;
* :mod:`~repro.persist.scenario` — JSON scenario specs shared by
  ``repro validate``, ``repro forecast --rundir`` and ``repro resume``;
* :class:`ProductStreamer` — incremental gauge/eta streaming so a
  crashed run still yields partial products;
* :func:`interrupt_guard` — SIGTERM/SIGINT capture that snapshots
  before unwinding;
* :mod:`~repro.persist.runner` — :func:`start_run` / :func:`resume_run`
  orchestration (bitwise-identical continuation).
"""

from repro.persist.journal import JOURNAL_VERSION, RunJournal, read_journal
from repro.persist.preflight import (
    Finding,
    PreflightReport,
    preflight,
    validate_rundir,
    validate_scenario,
)
from repro.persist.products import ProductStreamer, default_stations
from repro.persist.runner import (
    DEFAULT_CHECKPOINT_EVERY,
    resume_run,
    start_run,
)
from repro.persist.scenario import (
    BuiltScenario,
    build_scenario,
    domain_extent,
    load_scenario,
)
from repro.persist.signals import interrupt_guard
from repro.persist.snapshot import (
    SCHEMA_VERSION,
    array_digest,
    grid_fingerprint,
    read_arrays,
    read_snapshot,
    verify_snapshot,
    write_arrays,
    write_snapshot,
)
from repro.persist.store import RunStore

__all__ = [
    "JOURNAL_VERSION",
    "SCHEMA_VERSION",
    "DEFAULT_CHECKPOINT_EVERY",
    "RunJournal",
    "read_journal",
    "Finding",
    "PreflightReport",
    "preflight",
    "validate_rundir",
    "validate_scenario",
    "ProductStreamer",
    "default_stations",
    "resume_run",
    "start_run",
    "BuiltScenario",
    "build_scenario",
    "domain_extent",
    "load_scenario",
    "interrupt_guard",
    "array_digest",
    "grid_fingerprint",
    "read_arrays",
    "write_arrays",
    "read_snapshot",
    "verify_snapshot",
    "write_snapshot",
    "RunStore",
]
