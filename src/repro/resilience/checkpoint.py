"""The one in-memory image of model state, and the rollback ring.

A :class:`Checkpoint` is a deep copy of a model's prognostic state
(both leap-frog buffers of every block and the buffer flip, as
:meth:`~repro.core.state.BlockState.capture` returns them), the clock,
optionally the forecast-product accumulators and optionally a CRC-32
per state buffer.  Every placement of model state uses it:

* the rollback ring (:class:`CheckpointRing`, below);
* the disk: :func:`repro.persist.snapshot.read_snapshot` returns one;
* the survivable runtime's own and buddy replicas
  (:mod:`repro.resilience.survive`): one per rank and epoch.

So there is one capture, one verify (:meth:`Checkpoint.bad_blocks`) and
one restore.  Restoring a checkpoint and re-running is **bitwise
identical** to an uninterrupted run — the property rollback, resume and
rank recovery rely on and the tests prove for each placement.

The ring refuses to archive non-finite state: a checkpoint of
NaN-contaminated state would make rollback useless, so
:meth:`CheckpointRing.snapshot` raises
:class:`~repro.errors.NumericalError` instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import NumericalError, PersistError, ReproError
from repro.xchg.packing import payload_crc

#: How many leading ``OutputAccumulator.product_arrays()`` a ring entry
#: keeps: the four running products, not the fixed ``z0ref``/``land``.
RUNNING_PRODUCTS = 4


@dataclass(frozen=True)
class Checkpoint:
    """One deep snapshot of model state (immutable once taken)."""

    step: int
    time: float
    dt: float
    output_every: int
    #: block_id -> (z0, z1, m0, m1, n0, n1, flip)
    states: dict
    #: block_id -> the leading arrays of ``product_arrays()``: the four
    #: running products (ring), all six (disk); ``None`` for a rank's.
    outputs: dict | None = None
    #: block_id -> CRC-32 of each of the six state buffers (taken at
    #: capture, or on reading from disk); ``None`` when undigested.
    crcs: dict | None = None

    @classmethod
    def capture(
        cls,
        states: dict,
        *,
        step: int,
        time: float,
        dt: float,
        output_every: int = 1,
        outputs: dict | None = None,
        products: int | None = RUNNING_PRODUCTS,
        digest: bool = False,
        finite: bool = False,
    ) -> Checkpoint:
        """Copy live block *states* and the first *products* (``None``:
        all) arrays of each of *outputs*' accumulators at the given clock;
        *digest* adds CRCs.  With *finite*, non-finite state raises
        :class:`~repro.errors.NumericalError` instead of being archived.
        """
        captured = {}
        for bid, st in states.items():
            bufs = captured[bid] = st.capture()
            if finite and not all(np.isfinite(a).all() for a in bufs[:6]):
                raise NumericalError(
                    f"refusing to checkpoint non-finite state "
                    f"(block {bid}, step {step})"
                )
        ckpt = cls(
            step=step,
            time=time,
            dt=dt,
            output_every=output_every,
            states=captured,
            outputs=None if outputs is None else {
                bid: tuple(
                    a.copy() for a in list(acc.product_arrays().values())[:products]
                )
                for bid, acc in outputs.items()
            },
        )
        return ckpt.digested() if digest else ckpt

    def digested(self) -> Checkpoint:
        """This checkpoint with a CRC-32 of each state buffer as it is now."""
        return replace(self, crcs={
            bid: tuple(payload_crc(a) for a in bufs[:6])
            for bid, bufs in self.states.items()
        })

    @property
    def nbytes(self) -> int:
        """Memory footprint of the snapshot arrays."""
        return sum(
            a.nbytes for bufs in self.states.values() for a in bufs[:6]
        ) + sum(a.nbytes for accs in (self.outputs or {}).values() for a in accs)

    def bad_blocks(self) -> list[int]:
        """Blocks whose buffers no longer match their CRCs, sorted.

        Empty for a clean or an undigested checkpoint.
        """
        if self.crcs is None:
            return []
        return sorted(
            bid
            for bid, crcs in self.crcs.items()
            if bid not in self.states
            or any(payload_crc(a) != c for a, c in zip(self.states[bid], crcs))
        )

    def restore(self, model) -> None:
        """Rewind *model* bitwise to this checkpoint.

        Every block of *model* takes its state and the products this
        checkpoint carries; the clock, output cadence and dt follow.  The
        checkpoint may hold blocks the model lacks (a degraded model
        dropped a level), never the reverse.
        """
        missing = set(model.states) - set(self.states)
        if missing:
            raise ReproError(
                f"checkpoint lacks block(s) {sorted(missing)} of the model"
            )
        for bid, st in model.states.items():
            st.restore(self.states[bid])
        if self.outputs is not None:
            for bid, acc in model.outputs.items():
                acc.load_product_arrays(dict(zip(acc.product_arrays(), self.outputs[bid])))
        model.time = self.time
        model.step_count = self.step
        model.output_every = self.output_every
        if model.config.dt != self.dt:
            model.config = replace(model.config, dt=self.dt)


def capture_model(model, **kw) -> Checkpoint:
    """:meth:`Checkpoint.capture` of an ``RTiModel`` at its own clock."""
    return Checkpoint.capture(
        model.states,
        step=model.step_count,
        time=model.time,
        dt=model.config.dt,
        output_every=model.output_every,
        outputs=model.outputs,
        **kw,
    )


class CheckpointRing:
    """Fixed-capacity ring of model snapshots (oldest evicted first).

    With a *store* (a :class:`repro.persist.RunStore`), the ring doubles
    as the durable-persistence trigger: every in-memory snapshot is also
    written to disk as a checksummed, atomically published snapshot, so
    the rollback cadence and the crash-restart cadence of ``repro
    resume`` are one policy.  Disk failures during the spill raise
    :class:`~repro.errors.PersistError`; the in-memory snapshot is kept
    either way, so rollback keeps working on a full disk.
    """

    def __init__(
        self,
        capacity: int = 4,
        store=None,
        checksums: bool = False,
    ) -> None:
        if capacity < 1:
            raise ReproError("checkpoint ring capacity must be >= 1")
        self._ring: deque[Checkpoint] = deque(maxlen=capacity)
        self.store = store
        self.checksums = checksums
        self.taken = 0
        self.spilled = 0

    @property
    def latest(self) -> Checkpoint | None:
        return self._ring[-1] if self._ring else None

    def entries(self) -> list[Checkpoint]:
        """All held snapshots, oldest first (for the scrubber)."""
        return list(self._ring)

    def discard(self, ckpt: Checkpoint) -> bool:
        """Evict one snapshot (a scrub verdict said it is corrupt)."""
        try:
            self._ring.remove(ckpt)
        except ValueError:
            return False
        return True

    def replace(self, old: Checkpoint, new: Checkpoint) -> bool:
        """Swap a repaired snapshot in for a corrupt one, in place."""
        for i, held in enumerate(self._ring):
            if held is old:
                self._ring[i] = new
                return True
        return False

    def drop_latest(self) -> Checkpoint | None:
        """Pop the newest snapshot (rollback found it unverifiable)."""
        return self._ring.pop() if self._ring else None

    def clear(self) -> None:
        """Drop all snapshots (after a degradation changed the grid)."""
        self._ring.clear()

    def hold(self, ckpt: Checkpoint) -> None:
        """Hold *ckpt*, one already on disk (the snapshot a resume
        restored), as the newest entry without spilling it again."""
        self._ring.append(ckpt)

    def snapshot(self, model) -> Checkpoint:
        """Archive the model's current state; returns the checkpoint.

        Raises :class:`~repro.errors.NumericalError` on non-finite state
        rather than storing a poisoned snapshot.
        """
        ckpt = capture_model(model, digest=self.checksums, finite=True)
        self._ring.append(ckpt)
        self.taken += 1
        if self.store is not None:
            try:
                self.store.save_snapshot(model)
            except PersistError:
                raise
            except (OSError, ValueError) as exc:
                raise PersistError(
                    f"checkpoint disk spill failed at step "
                    f"{model.step_count}: {exc}"
                ) from exc
            self.spilled += 1
        return ckpt

    def restore(self, model, ckpt: Checkpoint | None = None) -> Checkpoint:
        """Rewind *model* to *ckpt* (default: the latest snapshot).

        The model must have the same block set as the snapshot (rollback
        never crosses a grid degradation — the engine clears the ring
        when it drops a level).
        """
        if ckpt is None:
            ckpt = self.latest
        if ckpt is None:
            raise ReproError("no checkpoint to restore")
        if set(ckpt.states) != set(model.states):
            raise ReproError(
                "checkpoint block set does not match the model "
                "(grid changed since the snapshot)"
            )
        ckpt.restore(model)
        return ckpt
