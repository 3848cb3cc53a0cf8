"""Operational resilience layer for the RTi reproduction.

The paper's value proposition is a *usable forecast within minutes of
the earthquake*; this subsystem makes the reproduction honor that under
failure.  It provides:

* :class:`FaultPlan` / :class:`FaultSpec` — seeded, declarative fault
  injection (rank crashes, message drops/delays, stragglers, NaN
  corruption) into the simulated MPI transport and the event-driven
  hardware model;
* :class:`HealthMonitor` — cheap per-step NaN/Inf, blow-up, CFL-margin
  and mass-drift checks raising :class:`~repro.errors.NumericalError`;
* :class:`Checkpoint` — the one in-memory image of model state (the
  rollback ring's entries, a snapshot read from disk, a rank's buddy
  replica), with one capture, one verify and a bitwise restore;
  :class:`CheckpointRing` keeps the last few, powering automatic
  rollback + timestep halving;
* :class:`DeadlineSupervisor` — deadline-aware graceful degradation
  (drop the finest nest level, coarsen output cadence, finish early),
  every action recorded in the run report;
* :class:`RecoveryEngine` / :func:`run_resilient_forecast` — the one
  single-process loop that checkpoints, spills to disk, catches signals
  and rolls back (also behind ``repro.persist``'s resumable runs and
  the survivable runtime's breaker), and its one-call orchestrator;
* :func:`survivable_run_distributed` — the one distributed recovery
  path: ULFM-style revoke/agree, epoch retry on a lost message,
  diskless neighbor checkpoints, shrinking recovery or spare-rank
  respawn, a single-process circuit breaker, and MAD-based straggler
  hedging (:mod:`repro.resilience.survive`);
* :mod:`repro.resilience.integrity` — the ABFT silent-data-corruption
  defense: block checksums through the leap-frog window
  (:class:`IntegrityMonitor`), CRC-framed halo payloads with seeded
  NACK/retransmit (:class:`MessageIntegrity`), checkpoint digest
  scrubbing with neighbor repair (:class:`CheckpointScrubber`), and the
  shared :class:`IntegrityTracker` ledger whose
  clean/corrected/corrupted verdict rides every
  :class:`ForecastReport`.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "checkpoint": "Checkpoint CheckpointRing",
    "clock": "SimulatedClock",
    "deadline": "DEGRADATION_ORDER DeadlineSupervisor",
    "faultplan": "FAULT_KINDS FaultPlan FaultSpec",
    "forecast": "run_resilient_forecast",
    "health": "HealthMonitor StepTimeMonitor",
    "inject": "FaultyComm RankCrashError corrupt_state flip_bit"
              " maybe_crash_at_step nonfinite_blocks",
    "integrity": "CLEAN CORRECTED CORRUPTED INTEGRITY_VERDICTS"
                 " CheckpointScrubber IntegrityMonitor IntegrityTracker"
                 " MessageIntegrity integrity_doc load_integrity_report"
                 " render_integrity_doc write_integrity_json",
    "recovery": "RecoveryEngine drop_finest_level",
    "report": "ForecastReport",
    "survive": "SurvivalConfig SurvivalReport buddy_of"
               " survivable_run_distributed",
})
