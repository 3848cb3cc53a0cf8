"""Fault injectors: transport decorator and state corruption.

Two injection surfaces mirror the two simulated substrates:

* :class:`FaultyComm` wraps a :class:`repro.par.comm.Communicator` and
  applies a :class:`~repro.resilience.faultplan.FaultPlan`'s
  communication faults to the send path (crash, drop, delay,
  straggler stall).  It is spliced in via ``run_ranks(comm_wrap=...)``
  by :func:`repro.resilience.survive.survivable_run_distributed`.
* :func:`corrupt_state` writes NaN/Inf into a block's prognostic fields,
  simulating a silent kernel corruption the health monitor must catch.

The third surface — straggler slowdown of the event-driven hardware
model — is ``StreamSimulator(slowdown=...)`` in :mod:`repro.hw.streams`,
driven through the simulated clock (:mod:`repro.resilience.clock`).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.errors import CommunicationError
from repro.resilience.faultplan import FaultPlan, FaultSpec


class RankCrashError(CommunicationError):
    """An injected rank crash (the simulated process died).

    Subclasses :class:`~repro.errors.CommunicationError` so the recovery
    engine's retry path treats a dead rank like any other transport
    failure.
    """

    def __init__(self, message: str, failed_rank: int | None = None) -> None:
        super().__init__(message)
        self.failed_rank = failed_rank


class FaultyComm:
    """Transport decorator applying a fault plan to one rank's sends.

    Delegates every operation to the wrapped communicator; only ``send``
    (and through it ``isend`` and the collectives) consults the plan.
    Receive-side behaviour needs no injection: a dropped message *is* a
    receiver timeout.
    """

    def __init__(self, comm, plan: FaultPlan) -> None:
        self._comm = comm
        self._plan = plan
        self._op = 0
        self._phase: str | None = None

    @property
    def rank(self) -> int:
        return self._comm.rank

    @property
    def size(self) -> int:
        return self._comm.size

    @property
    def timeout(self):
        return self._comm.timeout

    def set_phase(self, phase: str | None) -> None:
        """Mark the current transport phase ("halo", "ckpt" or None).

        The survivable runtime brackets its communication phases with
        this so phase-targeted crash faults can hit exactly the
        halo-exchange or checkpoint-replication window.
        """
        self._phase = phase

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        op = self._op
        self._op += 1
        spec = self._plan.comm_action(self.rank, op, phase=self._phase)
        if spec is not None:
            if spec.kind == "rank_crash":
                raise RankCrashError(
                    f"injected crash of rank {self.rank} at send op {op}",
                    failed_rank=self.rank,
                )
            if spec.kind == "msg_drop":
                return  # swallowed: the receiver will time out
            # msg_delay / straggler: stall, then deliver.
            time.sleep(spec.delay_s)
        self._comm.send(obj, dest, tag)

    def __getattr__(self, name: str) -> Any:
        # recv/isend/irecv/barrier_sync/allreduce/gather and anything
        # else pass straight through (isend/gather call *our* send only
        # when defined on the wrapped class with self=wrapped, so sends
        # issued inside collectives are not double-counted — acceptable:
        # the op counter tracks direct transport sends).
        return getattr(self._comm, name)


def maybe_crash_at_step(plan: FaultPlan | None, rank: int, step: int) -> None:
    """Fire a step-scheduled crash of *rank* at *step*, if one is planned.

    Raises :class:`RankCrashError`; a no-op without a matching
    unconsumed ``rank_crash`` spec.  Called by the survivable runtime at
    the top of every model step, *before* that step's checkpoint.
    """
    if plan is None:
        return
    spec = plan.crash_at_step(rank, step)
    if spec is not None:
        raise RankCrashError(
            f"injected crash of rank {rank} at step {step}",
            failed_rank=rank,
        )


def corrupt_state(states: dict, spec: FaultSpec) -> int | None:
    """Apply a ``nan`` fault to a dict of block states.

    Writes ``spec.value`` into the centre of the *read* buffer of field
    ``spec.field`` ("z", "m" or "n") of block ``spec.block`` (or the
    lowest block id if that block is absent).  Returns the corrupted
    block id, or ``None`` if there was nothing to corrupt.
    """
    if not states:
        return None
    bid = spec.block if spec.block in states else min(states)
    st = states[bid]
    arr = {"z": st.z_old, "m": st.m_old, "n": st.n_old}[spec.field]
    j, i = (s // 2 for s in arr.shape)
    arr[j, i] = spec.value
    return bid


def flip_bit(arr: np.ndarray, bit_index: int) -> tuple[int, int]:
    """XOR one bit of *arr*'s buffer in place (simulated SDC).

    *bit_index* addresses bits across the array's flattened C-order
    buffer and wraps modulo its size, so any non-negative index is
    valid for any array.  Returns ``(element_index, bit_within_elem)``
    for attribution.  The array must be viewable as bytes in place
    (any contiguous or strided real array qualifies via element slicing).
    """
    if arr.size == 0:
        raise ValueError("cannot flip a bit of an empty array")
    nbits = arr.dtype.itemsize * 8
    elem = (bit_index // nbits) % arr.size
    bit = bit_index % nbits
    # One element is round-tripped through its bytes and stored back —
    # in place for any layout, contiguous or strided.
    idx = np.unravel_index(elem, arr.shape)
    raw = bytearray(arr[idx].tobytes())
    raw[bit // 8] ^= 1 << (bit % 8)
    arr[idx] = np.frombuffer(bytes(raw), dtype=arr.dtype)[0]
    return elem, bit


def corrupt_state_bitflip(states: dict, spec: FaultSpec) -> int | None:
    """Apply a ``bitflip`` fault to a dict of block states.

    Flips bit ``spec.bit`` of the *read* buffer of field ``spec.field``
    of block ``spec.block`` (or the lowest block id when absent) — the
    buffer the previous step published and checksummed, so the integrity
    monitor's next verification pass catches the mutation.  Returns the
    corrupted block id, or ``None`` with nothing to corrupt.
    """
    if not states:
        return None
    bid = spec.block if spec.block in states else min(states)
    st = states[bid]
    arr = {"z": st.z_old, "m": st.m_old, "n": st.n_old}[spec.field]
    flip_bit(arr, spec.bit)
    return bid


def corrupt_checkpoint(ckpt, spec: FaultSpec) -> int | None:
    """Apply a ``bitflip`` fault to one checkpoint's stored buffers.

    Flips bit ``spec.bit`` of the read-side copy of field ``spec.field``
    in block ``spec.block`` of *ckpt* (or the lowest block id when
    absent).  The checkpoint's recorded digests are left untouched, so
    the scrubber's re-verification — or a rollback's pre-restore check —
    detects the mismatch.  Returns the corrupted block id or ``None``.
    """
    if ckpt is None or not ckpt.states:
        return None
    bid = spec.block if spec.block in ckpt.states else min(ckpt.states)
    bufs = ckpt.states[bid]
    base = {"z": 0, "m": 2, "n": 4}[spec.field]
    flip_bit(bufs[base + bufs[6]], spec.bit)
    return bid


def nonfinite_blocks(states: dict) -> list[int]:
    """Block ids whose prognostic read buffers contain NaN/Inf."""
    bad = []
    for bid, st in states.items():
        if not (
            np.isfinite(st.z_old).all()
            and np.isfinite(st.m_old).all()
            and np.isfinite(st.n_old).all()
        ):
            bad.append(bid)
    return bad
