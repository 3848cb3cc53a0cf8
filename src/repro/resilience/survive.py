"""In-flight rank-failure survival for the distributed runtime.

The operational premise of the paper is a *deadline*: a multi-hour
tsunami forecast must finish in ~82 s, so losing one rank late in the
run must not mean restarting from t=0.  This module is the distributed
runtime's one recovery path, ULFM-style and in flight:

1. **Revoke -> agree** — when a rank dies (or a message is lost), the
   first survivor to notice revokes the communicator
   (:meth:`~repro.par.comm.Communicator.revoke`); every blocked
   operation on every rank fails fast, and the survivors run an
   agreement round (:meth:`~repro.par.comm.Communicator.agree_failures`)
   to reach one consistent view of the dead-rank set.
2. **Diskless neighbor checkpoints** — every ``checkpoint_every`` steps
   each rank snapshots its blocks in memory and replicates the snapshot
   to its ring buddy (rank ``(r+1) % n``); each rank holds its own
   checkpoints and the replicas it receives in one
   :class:`~repro.resilience.checkpoint.CheckpointRing` of
   :data:`EPOCHS_HELD` epochs.  A replica is a copy, never the sender's
   own arrays, so any single rank's state exists on two ranks, one
   flipped bit spoils one copy only, and recovery restores the lost or
   corrupt subdomain from a peer's memory instead of disk.
3. **Shrink or respawn** — the orchestrator either relaunches at the
   same width, consuming a configurable spare-rank pool (*respawn*), or
   re-decomposes the whole grid onto the surviving count with the
   hill-climb separator optimizer and the linear kernel-time model
   (*shrink*, :func:`repro.balance.apply.shrink_decomposition`).  Either
   way the run resumes from the latest *consistent* buddy-checkpoint
   epoch — not from t=0.
4. **Straggler hedging** — per-rank busy times (step wall time minus
   recv wait) are shared by allreduce every :data:`HEDGE_WINDOW` steps; a
   MAD-based test (:class:`~repro.resilience.health.StepTimeMonitor`)
   flags a straggling rank, whose blocks are speculatively migrated to
   the least-loaded rank.  The next window adjudicates: if the makespan
   improved the migration commits, else it rolls back.  A per-run hedge
   budget and a consecutive-loss circuit breaker bound the speculation.
5. **Circuit breaker** — after ``max_rank_failures`` recovery rounds the
   orchestrator stops respawning/shrinking and completes single-process
   from the latest consistent checkpoint through the one guarded
   single-process loop, :class:`~repro.resilience.recovery.RecoveryEngine`
   (its ring, rollback and — when a deadline is configured — its
   degradation ladder, journaled to the run's store).  A dropped message
   with no dead rank is an *epoch retry*: a relaunch at the same width
   from the latest consistent epoch, never a rerun from t=0.

The run directory of a multi-rank run is this module's alone:
:func:`survivable_run_distributed` journals ``distributed_start``, every
record of the run (failure, recovery epoch, hedge decision), an
``interrupted`` record when SIGTERM or SIGINT ends the run, and — on
every completion path — publishes the gathered final water level and
journals ``distributed_complete``.

Bitwise contract: the distributed step is bitwise identical to the
single-process model for *any* whole-block decomposition, and a buddy
checkpoint is a bitwise snapshot of the prognostic state, so a run that
shrinks, respawns, retries an epoch, or migrates blocks still ends
bitwise identical to a failure-free run.  (The only non-bitwise path is
the final circuit-breaker fallback *under a deadline*, where the
degradation ladder may drop fidelity — exactly as documented for the
single-process resilience stack.)

Deviation from the issue's literal "commit whichever halo epoch
finishes first": the blocking in-order transport reuses tags every step
and cannot tolerate duplicate in-flight halo traffic, so hedging is
implemented as deterministic coordinated block *migration* at window
boundaries with measured-makespan adjudication (commit/rollback), which
preserves the bitwise contract under every hedge decision.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.artifacts import publishing
from repro.core.config import SimulationConfig
from repro.core.model import RTiModel
from repro.core.pipeline import build_step_plan
from repro.errors import CFLError, CommunicationError, ConfigurationError
from repro.obs.log import RunEvents, ServiceEvent, counted, traced_gauge
from repro.par.comm import run_ranks
from repro.par.decomposition import Decomposition
from repro.par.driver import _RankRuntime
from repro.persist.signals import interrupt_guard
from repro.resilience.checkpoint import Checkpoint, CheckpointRing
from repro.resilience.clock import SimulatedClock
from repro.resilience.deadline import DeadlineSupervisor
from repro.resilience.faultplan import FaultPlan
from repro.resilience.health import StepTimeMonitor
from repro.resilience.inject import (
    FaultyComm,
    RankCrashError,
    maybe_crash_at_step,
)
from repro.resilience.recovery import RecoveryEngine

#: Tag bases, disjoint from the step pipeline's halo/JNZ/JNQ spaces.
TAG_CKPT = 5_000_000
TAG_MIGRATE = 6_000_000

#: Checkpoint epochs each rank's ring holds (its own and its buddy's
#: replicas): a crash can land mid-replication of the newest epoch, so
#: the one before it must still be whole.
EPOCHS_HELD = 2

#: Straggler hedging: steps per adjudication window, migrations per run,
#: and consecutive losses that open the hedge breaker.
HEDGE_WINDOW = 5
HEDGE_BUDGET = 2
HEDGE_MAX_LOSSES = 2


def buddy_of(rank: int, size: int) -> int:
    """The ring buddy that holds *rank*'s checkpoint replica."""
    return (rank + 1) % size


# -- configuration ------------------------------------------------------


@dataclass
class SurvivalConfig:
    """Policy of the survivable distributed runtime (what the CLI sets)."""

    checkpoint_every: int = 10
    spare_ranks: int = 0
    max_rank_failures: int = 2
    policy: str = "auto"  # auto | shrink | respawn
    hedge_stragglers: bool = False
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        if self.spare_ranks < 0:
            raise ConfigurationError("spare_ranks must be >= 0")
        if self.max_rank_failures < 0:
            raise ConfigurationError("max_rank_failures must be >= 0")
        if self.policy not in ("auto", "shrink", "respawn"):
            raise ConfigurationError(
                f"unknown recovery policy {self.policy!r}; expected "
                f"'auto', 'shrink' or 'respawn'"
            )


# -- diskless neighbor checkpoints --------------------------------------


def _detached(ckpt: Checkpoint) -> Checkpoint:
    """*ckpt* with copies of its arrays, to send to a buddy.

    The transport copies an ndarray payload, not the arrays inside an
    object: on rank threads the replica would otherwise be the sender's
    own checkpoint, and one flipped bit would spoil both copies.
    """
    return replace(ckpt, states={
        bid: (*(a.copy() for a in bufs[:-1]), bufs[-1])
        for bid, bufs in ckpt.states.items()
    })


def _assemble_recovery(grid, rings: list[CheckpointRing]) -> Checkpoint | None:
    """Latest checkpoint step whose copies cover every block of the grid.

    Returns one checkpoint of every block, or ``None`` when no consistent
    step exists (e.g. a crash during the very first replication).

    Every copy is verified block by block: a block whose digest fails is
    skipped, so the same block from another copy of that step (typically
    the buddy replica of the corrupt own entry) fills the slot instead —
    neighbor repair.  A step is only usable when every needed block has
    at least one *clean* copy.
    """
    needed = {b.block_id for b in grid.all_blocks()}
    held = [c for ring in rings for c in ring.entries()]
    for step in sorted({c.step for c in held}, reverse=True):
        copies = [c for c in held if c.step == step]
        states: dict[int, tuple] = {}
        for c in copies:
            bad = c.bad_blocks()
            for bid, bufs in c.states.items():
                if bid not in bad:
                    states.setdefault(bid, bufs)
        if needed <= set(states):
            return replace(copies[0], states=states, crcs=None)
    return None


# -- per-rank machinery --------------------------------------------------


@dataclass
class _RankOutcome:
    """What one rank brings home from one incarnation."""

    eta: dict[int, np.ndarray] | None  # None: the rank did not finish
    at_step: int
    dead: tuple[int, ...]
    ring: CheckpointRing
    #: Hedge decisions (the same on every rank): the journal's owner emits.
    events: list[ServiceEvent] = field(default_factory=list)


class _RecvTimer:
    """Transport decorator measuring time blocked in ``recv``.

    Hedging must compare per-rank *busy* time (compute + injected send
    stalls), not wall time: in a tightly coupled halo exchange every
    rank's step wall time converges to the slowest rank's, which would
    blind the MAD detector.  Subtracting recv wait isolates each rank's
    own contribution.
    """

    def __init__(self, comm) -> None:
        self._comm = comm
        self.waited = 0.0

    def recv(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._comm.recv(*args, **kwargs)
        finally:
            self.waited += time.perf_counter() - t0

    def __getattr__(self, name: str):
        return getattr(self._comm, name)


def _set_phase(comm, phase: str | None) -> None:
    setter = getattr(comm, "set_phase", None)
    if setter is not None:
        setter(phase)


def _agree(comm) -> tuple[int, ...]:
    try:
        return comm.agree_failures()
    except CommunicationError:
        # A peer exited without voting (e.g. finished before the
        # revocation landed); fall back to the world's dead set.
        return tuple(sorted(comm._world.dead))


class _HedgeController:
    """Coordinated, deterministic straggler hedging for one rank.

    Every rank runs the same controller over the same allreduce-shared
    busy times, so every rank takes the same decision at the same step —
    no leader, no extra protocol.
    """

    def __init__(self, comm, rt) -> None:
        self.comm = comm
        self.rt = rt
        self.monitor = StepTimeMonitor()
        self.window_busy = 0.0
        self.consecutive_losses = 0
        self.probation: dict | None = None
        self.events: list[ServiceEvent] = []
        self._mig_seq = 0

    def observe(self, busy_s: float) -> None:
        self.window_busy += busy_s

    def scan(self, step: int) -> None:
        shared = self.comm.allreduce([(self.comm.rank, self.window_busy)])
        self.window_busy = 0.0
        per = {r: t for r, t in shared}
        makespan = max(per.values())
        if self.probation is not None:
            p, self.probation = self.probation, None
            if makespan < p["baseline"] * 0.95:
                self.consecutive_losses = 0
                self._note(
                    step,
                    "hedge_commit",
                    f"blocks {p['blocks']} stay on rank {p['target']}: "
                    f"window makespan {makespan * 1e3:.2f} ms < baseline "
                    f"{p['baseline'] * 1e3:.2f} ms",
                )
            else:
                self._migrate(p["blocks"], p["target"], p["straggler"])
                self.consecutive_losses += 1
                self._note(
                    step,
                    "hedge_rollback",
                    f"hedge did not pay off; blocks {p['blocks']} return "
                    f"to rank {p['straggler']}",
                )
                if self.consecutive_losses >= HEDGE_MAX_LOSSES:
                    self._note(
                        step,
                        "hedge_breaker_open",
                        f"{self.consecutive_losses} consecutive hedge "
                        f"losses; hedging disabled for this run",
                    )
            return
        kinds = [ev.kind for ev in self.events]  # this incarnation's hedges
        if ("hedge_breaker_open" in kinds
                or kinds.count("hedge_migrate") >= HEDGE_BUDGET):
            return
        flagged = self.monitor.stragglers(per)
        if not flagged:
            return
        straggler = flagged[0]
        blocks = sorted(
            bid for bid, r in self.rt.owner.items() if r == straggler
        )
        others = [r for r in sorted(per) if r != straggler]
        if not blocks or not others:
            return
        target = min(others, key=lambda r: (per[r], r))
        self._migrate(blocks, straggler, target)
        self.probation = {
            "straggler": straggler,
            "target": target,
            "baseline": makespan,
            "blocks": blocks,
        }
        self._note(
            step,
            "hedge_migrate",
            f"rank {straggler} flagged (busy "
            f"{per[straggler] * 1e3:.2f} ms vs makespan "
            f"{makespan * 1e3:.2f} ms); blocks {blocks} speculatively "
            f"re-executed on rank {target}",
        )

    def _migrate(self, blocks: list[int], src: int, dst: int) -> None:
        tag = TAG_MIGRATE + self._mig_seq
        self._mig_seq += 1
        if self.comm.rank == src:
            payload = {bid: self.rt.states[bid].capture() for bid in blocks}
            self.comm.send(payload, dest=dst, tag=tag)
            self.rt.drop_blocks(blocks)
        elif self.comm.rank == dst:
            self.rt.adopt_blocks(self.comm.recv(source=src, tag=tag))
        for bid in blocks:
            self.rt.owner[bid] = dst

    def _note(self, step: int, kind: str, detail: str) -> None:
        self.events.append(
            ServiceEvent(None, kind, detail=detail, fields={"step": step})
        )


class _SurvivableLoop:
    """One rank's checkpoint/hedge/step loop for one incarnation."""

    def __init__(
        self,
        comm,
        rt: _RankRuntime,
        scfg: SurvivalConfig,
        plan: FaultPlan | None,
        n_steps: int,
        start_step: int,
    ) -> None:
        self.comm = comm
        self.rt = rt
        self.scfg = scfg
        self.plan = plan
        self.n_steps = n_steps
        self.start_step = start_step
        self.step_reached = start_step
        #: This rank's own checkpoints and its buddy's replicas.
        self.ring = CheckpointRing(capacity=2 * EPOCHS_HELD)
        self.hedge = (
            _HedgeController(comm, rt)
            if scfg.hedge_stragglers and comm.size >= 3
            else None
        )

    def run(self) -> None:
        for k in range(self.start_step, self.n_steps):
            self.step_reached = k
            if self.plan is not None:
                maybe_crash_at_step(self.plan, self.comm.rank, k)
            if k % self.scfg.checkpoint_every == 0:
                self._replicate_checkpoint(k)
            if (
                self.hedge is not None
                and k > self.start_step
                and (k - self.start_step) % HEDGE_WINDOW == 0
            ):
                self.hedge.scan(k)
            w0 = getattr(self.comm, "waited", 0.0)
            t0 = time.perf_counter()
            _set_phase(self.comm, "halo")
            try:
                self.rt.step()
            finally:
                _set_phase(self.comm, None)
            if self.hedge is not None:
                wall = time.perf_counter() - t0
                waited = getattr(self.comm, "waited", 0.0) - w0
                self.hedge.observe(max(0.0, wall - waited))
        self.step_reached = self.n_steps

    def _replicate_checkpoint(self, k: int) -> None:
        tag = TAG_CKPT + k // self.scfg.checkpoint_every
        dt = self.rt.cfg.dt
        ckpt = Checkpoint.capture(
            self.rt.states, step=k, time=k * dt, dt=dt, digest=True
        )
        self.ring.hold(ckpt)
        if self.comm.size > 1:
            nxt = buddy_of(self.comm.rank, self.comm.size)
            prv = (self.comm.rank - 1) % self.comm.size
            _set_phase(self.comm, "ckpt")
            try:
                self.comm.send(_detached(ckpt), dest=nxt, tag=tag)
                self.ring.hold(self.comm.recv(source=prv, tag=tag))
            finally:
                _set_phase(self.comm, None)


# -- orchestrator --------------------------------------------------------


@dataclass
class IncarnationRecord:
    """One launch of the rank group (the first, or a recovery relaunch)."""

    index: int
    n_ranks: int
    start_step: int
    action: str  # initial | shrink | respawn | epoch_retry | *_scratch
    dead_ranks: tuple[int, ...] = ()
    epoch: int | None = None


@dataclass
class SurvivalReport:
    """Everything that happened across all incarnations of one run; its
    tallies are counts over the run's records, :attr:`events`."""

    n_steps: int
    completed_via: str = "distributed"  # distributed | single_process
    incarnations: list[IncarnationRecord] = field(default_factory=list)
    events: RunEvents = field(default_factory=RunEvents)
    #: Wall time of the last shrink re-decomposition (a measurement).
    shrink_latency_s: float = 0.0

    shrinks = counted("shrink", "shrink_scratch")
    respawns = counted("respawn", "respawn_scratch")
    epoch_retries = counted("epoch_retry", "epoch_retry_scratch")
    scratch_restarts = counted(
        "shrink_scratch", "respawn_scratch", "epoch_retry_scratch"
    )
    hedge_attempts = counted("hedge_migrate")
    hedge_wins = counted("hedge_commit")
    hedge_losses = counted("hedge_rollback")

    @property
    def rank_failures(self) -> int:
        return self.events.weight("rank_failure")

    @property
    def spares_used(self) -> int:
        return self.events.weight("respawn", "respawn_scratch")

    @property
    def breaker_tripped(self) -> bool:
        return self.events.count("fallback_single_process") > 0

    @property
    def final_n_ranks(self) -> int:
        return self.incarnations[-1].n_ranks if self.incarnations else 0

    def summary(self) -> str:
        parts = [
            f"completed via {self.completed_via} after "
            f"{len(self.incarnations)} incarnation(s)",
            f"rank failures: {self.rank_failures}",
        ]
        if self.shrinks:
            parts.append(
                f"shrinks: {self.shrinks} "
                f"(final width {self.final_n_ranks} ranks, "
                f"{self.shrink_latency_s * 1e3:.1f} ms re-decomposition)"
            )
        if self.respawns:
            parts.append(
                f"respawns: {self.respawns} ({self.spares_used} spare(s))"
            )
        if self.epoch_retries:
            parts.append(f"epoch retries: {self.epoch_retries}")
        if self.scratch_restarts:
            parts.append(f"scratch restarts: {self.scratch_restarts}")
        if self.hedge_attempts:
            parts.append(
                f"hedges: {self.hedge_attempts} "
                f"({self.hedge_wins} won, {self.hedge_losses} lost)"
            )
        if self.breaker_tripped:
            parts.append("circuit breaker tripped")
        return "; ".join(parts)


def survivable_run_distributed(
    grid,
    bathymetry,
    config: SimulationConfig,
    decomp: Decomposition,
    source,
    n_steps: int,
    *,
    survival: SurvivalConfig | None = None,
    fault_plan: FaultPlan | None = None,
    store=None,
    timeout: float = 300.0,
    comm_timeout: float = 30.0,
) -> tuple[dict[int, np.ndarray], SurvivalReport]:
    """Distributed run that survives in-flight rank failures.

    Runs the Fig.-2 pipeline on ``decomp.n_ranks`` simulated MPI ranks
    with diskless neighbor checkpointing; on a rank failure the
    survivors revoke + agree, and the run is relaunched — shrunk onto
    the survivors or respawned from the spare pool per
    :class:`SurvivalConfig` — from the latest consistent checkpoint
    epoch.  Returns ``(eta_by_block, SurvivalReport)``.

    *store* (a :class:`repro.persist.RunStore`) is the run directory:
    ``distributed_start`` is journaled before the first incarnation and
    every record of the run (failure, recovery epoch, hedge decision,
    breaker hand-over) write-ahead; SIGTERM/SIGINT journal
    ``interrupted`` (``phase="distributed"``) and unwind with
    :class:`KeyboardInterrupt`; a completed run — distributed or through
    the breaker — publishes its gathered final water level into the
    store's products and journals ``distributed_complete``.
    """
    scfg = survival or SurvivalConfig()
    events = store.run_events if store is not None else RunEvents()
    report = SurvivalReport(n_steps=n_steps, events=events)
    if store is None:
        guard = contextlib.nullcontext()
    else:
        events.emit(ServiceEvent(None, "distributed_start", fields={
            "n_ranks": decomp.n_ranks, "n_steps": n_steps,
            "config": config.to_dict(),
        }))
        guard = interrupt_guard(
            journal_fn=lambda sig, _ok: events.emit(ServiceEvent(
                None, "interrupted",
                fields={"signal": sig, "phase": "distributed"},
            ))
        )
    with guard:
        eta = _incarnations(
            grid, bathymetry, config, decomp, source, n_steps, scfg,
            fault_plan, report, timeout, comm_timeout,
        )
        if report.hedge_attempts:
            traced_gauge("repro_hedge_win_rate",
                         "hedge wins / attempts for the last survivable run",
                         report.hedge_wins / report.hedge_attempts)
        if store is not None:
            events.emit(ServiceEvent(None, "distributed_complete", fields={
                "product": _publish_distributed_eta(store, eta, n_steps),
                "n_steps": n_steps,
                "incarnations": len(report.incarnations),
                "rank_failures": report.rank_failures,
                "summary": report.summary(),
            }))
    return eta, report


def _incarnations(
    grid, bathymetry, config, decomp, source, n_steps, scfg, fault_plan,
    report, timeout, comm_timeout,
) -> dict[int, np.ndarray]:
    """Launch, and relaunch after every failure round, until the run
    completes distributed or the breaker completes it single-process."""
    from repro.balance.apply import shrink_decomposition

    if fault_plan is not None:
        comm_wrap = lambda c: _RecvTimer(FaultyComm(c, fault_plan))  # noqa: E731
    else:
        comm_wrap = _RecvTimer

    current = decomp
    spares_left = scfg.spare_ranks
    restore: Checkpoint | None = None
    start_step = 0
    last_good: Checkpoint | None = None
    action = "initial"
    dead_now: tuple[int, ...] = ()
    epoch_now: int | None = None
    rounds = 0

    plan = build_step_plan(grid, config)  # the same for every decomposition
    while True:
        report.incarnations.append(
            IncarnationRecord(
                index=len(report.incarnations),
                n_ranks=current.n_ranks,
                start_step=start_step,
                action=action,
                dead_ranks=dead_now,
                epoch=epoch_now,
            )
        )
        initial = source if restore is None else restore
        this_start = start_step
        this_owner = current.owner_map()

        def rank_main(comm):
            rt = _RankRuntime(
                comm, grid, this_owner, bathymetry, config, plan, initial
            )
            loop = _SurvivableLoop(
                comm, rt, scfg, fault_plan, n_steps, this_start
            )
            try:
                loop.run()
            except CommunicationError as exc:
                if (
                    isinstance(exc, RankCrashError)
                    and exc.failed_rank == comm.rank
                ):
                    raise  # we are the dead rank
                comm.revoke()
            # Survivors agree on the dead set; a rank that finished votes
            # too, so an agreement round converges whoever finished first.
            return _RankOutcome(
                eta=rt.eta() if loop.step_reached == n_steps else None,
                at_step=loop.step_reached,
                dead=_agree(comm),
                ring=loop.ring,
                events=loop.hedge.events if loop.hedge is not None else [],
            )

        results, errors = run_ranks(
            current.n_ranks,
            rank_main,
            timeout=timeout,
            comm_timeout=comm_timeout,
            comm_wrap=comm_wrap,
            return_errors=True,
        )
        # A dt no relaunch can make stable is not a rank failure.
        for _rank, exc in errors:
            if isinstance(exc, CFLError):
                raise exc
        outcomes = [r for r in results if isinstance(r, _RankOutcome)]
        for ev in outcomes[0].events if outcomes else ():
            report.events.emit(ev)

        dead = tuple(
            sorted(
                {r for o in outcomes for r in o.dead}
                | {r for r, _ in errors}
            )
        )
        if (
            not dead
            and not errors
            and len(outcomes) == current.n_ranks
            and all(o.eta is not None for o in outcomes)
        ):
            merged: dict[int, np.ndarray] = {}
            for o in outcomes:
                merged.update(o.eta)
            return merged

        # -- a failure round ------------------------------------------
        rounds += 1
        at_step = max(
            [o.at_step for o in outcomes], default=start_step
        )
        if dead:
            report.events.emit(ServiceEvent(None, "rank_failure", fields={
                "ranks": list(dead),
                "at_step": at_step,
                "incarnation": len(report.incarnations) - 1,
                "n_ranks": current.n_ranks,
            }))

        # Reconstruct the latest consistent state from survivor memory.
        assembled = _assemble_recovery(grid, [o.ring for o in outcomes])
        if assembled is not None:
            last_good = assembled
        if last_good is not None:
            restore = last_good
            start_step = restore.step
            epoch_now = start_step // scfg.checkpoint_every
        else:
            epoch_now, start_step, restore = None, 0, None

        # -- circuit breaker ------------------------------------------
        n_dead = len(dead)
        survivors = current.n_ranks - n_dead
        if rounds > scfg.max_rank_failures:
            return _breaker_fallback(
                grid, bathymetry, config, source, n_steps, restore,
                start_step, scfg, report,
                reason=f"{rounds} recovery rounds exceed "
                f"max_rank_failures={scfg.max_rank_failures}",
            )

        # -- choose the recovery action -------------------------------
        if n_dead == 0:
            action = "epoch_retry"
        elif scfg.policy in ("auto", "respawn") and spares_left >= n_dead:
            action = "respawn"
            spares_left -= n_dead
        elif scfg.policy in ("auto", "shrink") and survivors >= 1:
            action = "shrink"
            t0 = time.perf_counter()
            current = shrink_decomposition(grid, survivors)
            report.shrink_latency_s = time.perf_counter() - t0
            traced_gauge("repro_recovery_shrink_latency_seconds",
                         "wall time of the last shrink re-decomposition",
                         report.shrink_latency_s)
        else:
            return _breaker_fallback(
                grid, bathymetry, config, source, n_steps, restore,
                start_step, scfg, report,
                reason=f"policy {scfg.policy!r} has no recovery action "
                f"left (spares={spares_left}, survivors={survivors})",
            )
        if restore is None:
            action += "_scratch"
        dead_now = dead
        report.events.emit(ServiceEvent(None, action, fields={
            "epoch": epoch_now,
            "step": start_step,
            "n_ranks": current.n_ranks,
            "dead": list(dead),
        }))
        traced_gauge("repro_recovery_epoch",
                     "buddy-checkpoint epoch the run last resumed from",
                     epoch_now if epoch_now is not None else -1)


def _breaker_fallback(
    grid,
    bathymetry,
    config,
    source,
    n_steps: int,
    restore: Checkpoint | None,
    start_step: int,
    scfg: SurvivalConfig,
    report: SurvivalReport,
    reason: str,
) -> dict[int, np.ndarray]:
    """Complete the forecast single-process from the latest checkpoint.

    The end of the recovery ladder: no more respawns or shrinks.  The
    remaining integration is the one guarded loop,
    :class:`~repro.resilience.recovery.RecoveryEngine`; with a deadline
    configured its degradation ladder (drop finest level, coarsen
    output, finish early) can still save the forecast product.  Its
    rollbacks and degradations are records of the run's events.
    """
    report.completed_via = "single_process"
    report.events.emit(ServiceEvent(None, "fallback_single_process", fields={
        "reason": reason, "start_step": start_step,
    }))

    model = RTiModel(grid, bathymetry, config)
    if source is not None:
        model.set_initial_condition(source)
    if restore is not None:
        restore.restore(model)

    supervisor = clock = None
    if scfg.deadline_s is not None:
        supervisor = DeadlineSupervisor(scfg.deadline_s)
        clock = SimulatedClock()
    engine = RecoveryEngine(
        model,
        n_steps * config.dt,
        supervisor=supervisor,
        clock=clock,
        checkpoint_every=scfg.checkpoint_every,
        sink=report.events,
    )
    model = engine.run()
    return {
        bid: st.eta_interior().copy() for bid, st in model.states.items()
    }


def _publish_distributed_eta(store, eta_by_block, n_steps: int) -> str:
    """Atomically write the gathered final eta into the store's products;
    returns the product's file name."""
    final = store.products_dir / f"distributed_eta_step_{n_steps:08d}.npz"
    with publishing(final, "wb") as fh:
        np.savez_compressed(
            fh, **{f"b{bid}": a for bid, a in eta_by_block.items()}
        )
    return final.name
