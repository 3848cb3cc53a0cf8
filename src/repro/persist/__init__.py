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

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "journal": "JOURNAL_VERSION RunJournal read_journal",
    "preflight": "Finding PreflightReport preflight validate_rundir"
                 " validate_scenario",
    "products": "ProductStreamer default_stations",
    "runner": "DEFAULT_CHECKPOINT_EVERY resume_run start_run",
    "scenario": "BuiltScenario build_scenario domain_extent load_scenario",
    "signals": "interrupt_guard",
    "snapshot": "SCHEMA_VERSION array_digest grid_fingerprint read_arrays"
                " read_snapshot verify_snapshot write_arrays write_snapshot",
    "store": "RunStore",
})
