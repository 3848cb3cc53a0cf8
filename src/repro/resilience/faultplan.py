"""Seeded, declarative fault plans for chaos testing the forecast service.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec` entries that
deterministically injects failures into the two substrates the
reproduction simulates — the simulated-MPI transport between rank
processes (:mod:`repro.par.comm`) and the event-driven hardware model
(:mod:`repro.hw.streams`) — plus NaN/Inf corruption of the numerical
state.  Determinism is the point: a chaos scenario is fully described by
``FaultPlan.random(seed)`` or a JSON file, so every hang, blow-up, or
degradation is replayable.

Fault kinds
-----------
``rank_crash``
    Rank *rank* raises on its *op*-th transport send (the rank dies).
    With ``step`` instead of ``op`` the crash fires at the top of model
    step *step* (via :func:`repro.resilience.inject.maybe_crash_at_step`
    in the survivable runtime) — "kill rank 2 at 80% progress".  With
    ``phase`` set ("halo" or "ckpt") the crash targets the first send
    inside that communication phase at or after *op* (default: the
    phase's first send), so chaos tests can force a death mid
    halo-exchange or mid checkpoint-replication specifically.
``msg_drop``
    Rank *rank*'s *op*-th send is silently swallowed; the receiver times
    out with :class:`~repro.errors.CommTimeoutError`.
``msg_delay``
    Rank *rank*'s *op*-th send is stalled by *delay_s* seconds.
``straggler``
    Rank *rank* runs slowed by *factor* for *span* steps starting at
    *step* (hardware-model surface) and stalls every send from op *op*
    onward by *delay_s* (transport surface).
``nan``
    After model step *step*, *value* (NaN by default) is written into
    field *field* of block *block* — a simulated silent kernel
    corruption.
``bitflip``
    One bit (index *bit*, default 1 — a low-order mantissa bit, i.e.
    quintessential *silent* corruption: the value stays finite and
    plausible) is XORed into one of two targets selected by *target*:
    ``"state"`` flips a bit of field *field* in block *block* of the
    published state before step *step* runs; ``"checkpoint"`` flips a bit
    of the newest in-memory checkpoint's stored buffers after the
    step-*step* checkpoint is taken.  Only the ABFT layer
    (:mod:`repro.resilience.integrity`) can see these — the health
    monitor and divergence sentinel cannot.

File format (JSON)::

    {
      "seed": 7,
      "faults": [
        {"kind": "nan", "step": 12, "block": 0, "field": "z"},
        {"kind": "rank_crash", "rank": 1, "op": 4},
        {"kind": "msg_drop", "rank": 0, "op": 9},
        {"kind": "msg_delay", "rank": 2, "op": 3, "delay_s": 0.05},
        {"kind": "straggler", "rank": 1, "step": 20, "span": 40,
         "factor": 4.0}
      ]
    }

Unknown keys are rejected; one-shot faults (everything except
``straggler``) fire at most once per plan, *including across retries* —
a retry after a crash or drop therefore succeeds, which is exactly the
transient-fault behaviour the recovery engine is built for.  A forked
rank that consumes a fault consumes it for the whole run: the marks live
in memory the plan shares with every process forked after it was made.
"""

from __future__ import annotations

import json
import math
import mmap
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable

from repro.errors import ConfigurationError

#: Recognized fault kinds.
FAULT_KINDS = (
    "rank_crash", "msg_drop", "msg_delay", "straggler", "nan", "bitflip",
)

#: Kinds injected into the simulated-MPI transport.
COMM_KINDS = ("rank_crash", "msg_drop", "msg_delay", "straggler")

#: The kinds each forecast path injects, in the order a seeded plan draws
#: them: the single-process guarded run
#: (:class:`~repro.resilience.recovery.RecoveryEngine`) and the ranks
#: (:func:`~repro.resilience.survive.survivable_run_distributed`).
#: A plan for a path holds no other kind: nothing would inject it.
INJECTED_KINDS = {
    "process": ("nan", "straggler", "bitflip"),
    "ranks": COMM_KINDS,
}

#: Injection targets for the ``bitflip`` kind.
BITFLIP_TARGETS = ("state", "checkpoint")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault (see module docstring for field semantics)."""

    kind: str
    rank: int | None = None
    op: int | None = None
    step: int | None = None
    span: int = 30
    block: int | None = None
    field: str = "z"
    value: float = math.nan
    delay_s: float = 0.02
    factor: float = 4.0
    phase: str | None = None
    target: str | None = None
    bit: int = 1

    def __post_init__(self) -> None:
        for name in ("rank", "op", "step", "block", "span", "bit"):
            v = getattr(self, name)
            if type(v) is not int and not (v is None and name not in ("span", "bit")):
                raise ConfigurationError(f"fault {name} must be an integer, got {v!r}")
        for name in ("value", "delay_s", "factor"):
            if type(getattr(self, name)) not in (int, float):
                raise ConfigurationError(
                    f"fault {name} must be a number, got {getattr(self, name)!r}")
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.phase not in (None, "halo", "ckpt"):
            raise ConfigurationError(
                f"unknown fault phase {self.phase!r}; expected "
                f"None, 'halo' or 'ckpt'"
            )
        if self.kind in COMM_KINDS and self.rank is None:
            raise ConfigurationError(f"{self.kind} fault needs a rank")
        if self.kind == "nan" and self.step is None:
            raise ConfigurationError("nan fault needs a step")
        if self.kind == "bitflip":
            tgt = self.target if self.target is not None else "state"
            if tgt not in BITFLIP_TARGETS:
                raise ConfigurationError(
                    f"unknown bitflip target {self.target!r}; expected "
                    f"one of {BITFLIP_TARGETS}"
                )
            if self.step is None:
                raise ConfigurationError(
                    f"bitflip target {tgt!r} needs a step"
                )
            if self.bit < 0:
                raise ConfigurationError("bit index must be >= 0")
        if self.kind == "straggler" and self.factor < 1.0:
            raise ConfigurationError("straggler factor must be >= 1")
        if self.delay_s < 0:
            raise ConfigurationError("delay_s must be non-negative")
        if self.span < 1:
            raise ConfigurationError("span must be >= 1")

    def label(self) -> str:
        """Compact human-readable identity used in run reports."""
        parts = [self.kind]
        if self.rank is not None:
            parts.append(f"rank={self.rank}")
        if self.op is not None:
            parts.append(f"op={self.op}")
        if self.step is not None:
            parts.append(f"step={self.step}")
        if self.phase is not None:
            parts.append(f"phase={self.phase}")
        if self.kind == "straggler":
            parts.append(f"x{self.factor:g}")
        if self.kind == "nan":
            parts.append(f"{self.field}[block {self.block}]")
        if self.kind == "bitflip":
            tgt = self.target if self.target is not None else "state"
            parts.append(f"target={tgt}")
            parts.append(f"{self.field}[block {self.block}]")
            parts.append(f"bit={self.bit}")
        return " ".join(parts)


class FaultPlan:
    """An ordered set of faults plus one-shot consumption bookkeeping.

    The plan object is shared by every injector (all ranks' transports,
    the recovery engine, the simulated clock).  Its marks — two bytes per
    fault, consumed and triggered — are one anonymous shared mapping, so
    what a forked rank consumes stays consumed for the launcher and every
    later incarnation.  Each transport fault names one rank, so each of
    its bytes has one writer and no lock is needed.
    """

    def __init__(
        self, faults: Iterable[FaultSpec] = (), seed: int | None = None
    ) -> None:
        self.faults: list[FaultSpec] = list(faults)
        self.seed = seed
        self._marks = mmap.mmap(-1, max(2 * len(self.faults), 1))

    # -- construction ---------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        kinds: tuple[str, ...] = FAULT_KINDS,
        n_faults: int = 3,
        n_ranks: int = 4,
        n_steps: int = 100,
        n_blocks: int = 1,
    ) -> "FaultPlan":
        """A seeded random mix of faults sized for a given run shape."""
        import random as _random

        rng = _random.Random(seed)
        out = []
        for _ in range(max(0, n_faults)):
            kind = rng.choice(list(kinds))
            rank = rng.randrange(n_ranks)
            if kind == "nan":
                out.append(
                    FaultSpec(
                        kind="nan",
                        step=rng.randrange(1, max(2, n_steps)),
                        block=rng.randrange(n_blocks),
                        field=rng.choice(("z", "m", "n")),
                        value=rng.choice((math.nan, math.inf, -math.inf)),
                    )
                )
            elif kind == "bitflip":
                out.append(
                    FaultSpec(
                        kind="bitflip",
                        target=rng.choice(BITFLIP_TARGETS),
                        step=rng.randrange(1, max(2, n_steps)),
                        block=rng.randrange(n_blocks),
                        field=rng.choice(("z", "m", "n")),
                        bit=rng.randrange(0, 16),
                    )
                )
            elif kind == "straggler":
                out.append(
                    FaultSpec(
                        kind="straggler",
                        rank=rank,
                        op=rng.randrange(0, 20),
                        step=rng.randrange(0, max(1, n_steps // 2)),
                        span=rng.randrange(10, max(11, n_steps)),
                        factor=rng.uniform(2.0, 8.0),
                        delay_s=0.002,
                    )
                )
            else:  # rank_crash / msg_drop / msg_delay
                out.append(
                    FaultSpec(
                        kind=kind,
                        rank=rank,
                        op=rng.randrange(0, 12),
                        delay_s=rng.uniform(0.005, 0.05),
                    )
                )
        return cls(out, seed=seed)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [
                {
                    k: v
                    for k, v in asdict(f).items()
                    if v is not None and not (k == "value" and v != v)
                }
                for f in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        faults = data.get("faults", []) if isinstance(data, dict) else None
        if not isinstance(faults, list) or not all(
                isinstance(raw, dict) for raw in faults):
            raise ConfigurationError(
                "a fault plan is an object whose 'faults' is a list of objects")
        known = {f.name for f in fields(FaultSpec)}
        for raw in faults:
            if set(raw) - known:
                raise ConfigurationError(
                    f"unknown fault-plan keys {sorted(set(raw) - known)}")
        return cls([FaultSpec(**raw) for raw in faults], seed=data.get("seed"))

    @classmethod
    def from_file(cls, path, kinds: tuple[str, ...] = FAULT_KINDS) -> "FaultPlan":
        """The plan in JSON file *path*; a fault of a kind outside *kinds*
        (what the run's path injects, :data:`INJECTED_KINDS`) is a
        :class:`~repro.errors.ConfigurationError`."""
        with open(path, encoding="utf-8") as fh:
            plan = cls.from_dict(json.load(fh))
        for spec in plan.faults:
            if spec.kind not in kinds:
                raise ConfigurationError(
                    f"fault kind {spec.kind!r} is never injected on this "
                    f"path (it injects {', '.join(kinds)})")
        return plan

    # -- matching / consumption -----------------------------------------

    def _consumed(self, idx: int) -> bool:
        return bool(self._marks[2 * idx])

    def _mark(self, idx: int, consume: bool) -> None:
        self._marks[2 * idx + 1] = 1
        if consume:
            self._marks[2 * idx] = 1

    def comm_action(
        self, rank: int, op: int, phase: str | None = None
    ) -> FaultSpec | None:
        """Fault (if any) to apply to *rank*'s *op*-th send.

        One-shot faults (crash/drop/delay) are consumed; stragglers keep
        applying from their start op onward.  *phase* is the transport
        phase the injector is currently in ("halo", "ckpt" or ``None``);
        phase-targeted faults fire on the first send inside their phase
        at or after their *op* (default: immediately).
        """
        candidates = [
            (i, f)
            for i, f in enumerate(self.faults)
            if f.kind in COMM_KINDS and f.rank == rank and not self._consumed(i)
        ]
        for i, f in candidates:
            if f.kind == "straggler":
                if f.op is not None and op >= f.op:
                    self._mark(i, consume=False)
                    return f
            elif f.phase is not None:
                if f.phase == phase and (f.op is None or op >= f.op):
                    self._mark(i, consume=True)
                    return f
            elif f.op == op:
                self._mark(i, consume=True)
                return f
        return None

    def crash_at_step(self, rank: int, step: int) -> FaultSpec | None:
        """Unconsumed step-scheduled crash of *rank* at *step*, if any.

        Step-scheduled crashes (``rank_crash`` with ``step`` set and no
        ``op``/``phase``) fire at the top of the model step, before the
        step's checkpoint — so recovery genuinely resumes from an
        *earlier* epoch.  Consumed on return, like every one-shot fault.
        """
        for i, f in enumerate(self.faults):
            if (
                f.kind == "rank_crash"
                and f.rank == rank
                and f.step == step
                and f.op is None
                and f.phase is None
                and not self._consumed(i)
            ):
                self._mark(i, consume=True)
                return f
        return None

    def state_faults_at(self, step: int) -> list[FaultSpec]:
        """Unconsumed NaN-corruption faults scheduled for *step*."""
        hits = [
            (i, f)
            for i, f in enumerate(self.faults)
            if f.kind == "nan" and f.step == step and not self._consumed(i)
        ]
        for i, _f in hits:
            self._mark(i, consume=True)
        return [f for _i, f in hits]

    def bitflips_at(self, step: int, target: str) -> list[FaultSpec]:
        """Unconsumed bit-flip faults for *target* scheduled at *step*.

        *target* is ``"state"`` or ``"checkpoint"``.  Consumed on return —
        after a quarantine-rollback the rerun of the same step is clean,
        which is the transient-SDC model ECC scrubbing assumes.
        """
        hits = [
            (i, f)
            for i, f in enumerate(self.faults)
            if f.kind == "bitflip"
            and (f.target or "state") == target
            and f.step == step
            and not self._consumed(i)
        ]
        for i, _f in hits:
            self._mark(i, consume=True)
        return [f for _i, f in hits]

    def straggler_factor(self, step: int) -> float:
        """Combined hardware slowdown active at model step *step*."""
        factor = 1.0
        for i, f in enumerate(self.faults):
            if f.kind != "straggler":
                continue
            start = f.step if f.step is not None else 0
            if start <= step < start + f.span:
                factor *= f.factor
                self._mark(i, consume=False)
        return factor

    # -- reporting ------------------------------------------------------

    @property
    def triggered(self) -> list[FaultSpec]:
        """Faults that actually fired, in plan order."""
        return [f for i, f in enumerate(self.faults) if self._marks[2 * i + 1]]

    def triggered_labels(self) -> list[str]:
        return [f.label() for f in self.triggered]
