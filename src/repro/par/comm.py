"""Simulated MPI over rank processes.

Ranks are Python callables; a :class:`Communicator` gives each of them
mpi4py-flavoured blocking point-to-point operations (tag matching with
a stash for out-of-order arrivals, timeouts) and one collective,
``allreduce``, run by those same messages in rank order.  Sends are
buffered, so a rank overlaps communication with work by sending first
and receiving late.  A rank is a process, as in the paper's flat MPI:
:func:`run_ranks` keeps the caller as rank 0 and forks ranks
``1..n-1`` (:mod:`repro.par.process_world`); packed halos move through
preallocated shared-memory slots, everything else pickled through
pipes.  The copy into the peer's slot or pipe is the value-semantics
copy of a send (a self-send is copied on delivery), so races on the
caller's buffers are impossible.  Modelled timing comes from the
separate cost model in :mod:`repro.par.timing`.

Failure semantics (the operational-resilience contract):

* a rank that raises is recorded in the launcher's failure list *with
  its rank id* and every sibling is poisoned, so ranks blocked in
  ``recv`` fail immediately with a message naming the dead rank instead
  of dying on an opaque timeout; that list is also the agreed dead set
  the survivable runtime relaunches without;
* timeouts are configurable per :class:`Communicator` and raise
  :class:`~repro.errors.CommTimeoutError` (a
  :class:`~repro.errors.CommunicationError` subclass), so callers can
  distinguish a transient stall from protocol misuse; the group as a
  whole has one deadline, and its expiry names the ranks still running;
* a survivor that detects a failure can *revoke* the communicator (ULFM
  ``MPI_Comm_revoke`` semantics): every blocked operation on every other
  rank fails with :class:`~repro.errors.CommunicatorRevokedError`.
"""

from __future__ import annotations

import functools
import queue
from typing import Any, Callable

import numpy as np

from repro.errors import (
    CommTimeoutError,
    CommunicationError,
    CommunicatorRevokedError,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

_TRACER = get_tracer()


def _sent_bytes(nbytes: int) -> None:
    """Fold one transport payload into the halo-traffic counter."""
    get_registry().counter(
        "repro_halo_bytes_total",
        "bytes moved through the simulated MPI transport",
    ).inc(nbytes)


#: Wildcard source, as in MPI.
ANY_SOURCE = -1

#: Default timeout [s] for blocking operations (deadlock guard).
DEFAULT_TIMEOUT = 30.0

#: Default size [bytes] of a shared-memory slot (a larger ndarray, or any
#: other payload, takes the pipe).
DEFAULT_SLOT_BYTES = 4096

#: Sentinel payload delivered to every mailbox when a rank dies.
_POISON = object()

#: Sentinel payload delivered to every mailbox when the communicator is
#: revoked by a survivor (distinct from _POISON: the *sender* is alive).
_REVOKED = object()

#: Sentinel distinguishing "use the communicator default" from an explicit
#: ``None`` (= wait forever).
_UNSET = object()

#: Reserved tags of the collectives that run by messages.
_TAG_ALLGATHER = 987_655
_TAG_BROADCAST = 987_656


class Communicator:
    """Per-rank view of the world (mpi4py-like lowercase API).

    Parameters
    ----------
    world:
        This process's view of the rank processes' transport.
    rank:
        This communicator's rank id.
    timeout:
        Default timeout [s] for blocking operations (``recv``,
        ``allreduce``); ``None`` waits forever.
    """

    def __init__(
        self,
        world,
        rank: int,
        timeout: float | None = DEFAULT_TIMEOUT,
    ) -> None:
        self._world = world
        self.rank = rank
        self.size = world.size
        self.timeout = timeout
        # Out-of-order receives are stashed here until matched.
        self._stash: list[tuple[int, int, Any]] = []

    # -- point to point -------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard-mode send (buffered: never deadlocks on its own)."""
        if not 0 <= dest < self.size:
            raise CommunicationError(f"bad destination rank {dest}")
        if _TRACER.enabled and isinstance(obj, np.ndarray):
            _sent_bytes(obj.nbytes)
        self._world.mailboxes[dest].put((self.rank, tag, obj))

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = 0,
        timeout: float | None = _UNSET,
    ) -> Any:
        """Blocking receive matching (source, tag).

        *timeout* defaults to the communicator's timeout.  Raises
        :class:`~repro.errors.CommTimeoutError` on expiry and
        :class:`~repro.errors.CommunicationError` naming the dead rank if
        a sibling rank failed while we were waiting.
        """
        if timeout is _UNSET:
            timeout = self.timeout
        for idx, (src, tg, payload) in enumerate(self._stash):
            if (source in (ANY_SOURCE, src)) and tg == tag:
                self._stash.pop(idx)
                return payload
        while True:
            try:
                src, tg, payload = self._world.mailboxes[self.rank].get(
                    timeout=timeout
                )
            except queue.Empty:
                raise CommTimeoutError(
                    f"rank {self.rank}: recv(source={source}, tag={tag}) "
                    f"timed out after {timeout}s — likely a dead peer, "
                    f"deadlock or missing send",
                    failed_rank=self.rank,
                    source=source,
                    dest=self.rank,
                    tag=tag,
                    op="recv",
                ) from None
            if payload is _REVOKED or payload is _POISON:
                # Re-deliver so later receives on this rank see it too.
                self._world.mailboxes[self.rank].put((src, tg, payload))
                waiting = (f"while we were waiting in recv(source={source},"
                           f" tag={tag})")
                if payload is _REVOKED:
                    raise CommunicatorRevokedError(
                        f"rank {self.rank}: communicator revoked by rank "
                        f"{src} {waiting}"
                    )
                woken = CommunicationError(
                    f"rank {self.rank}: rank {src} failed {waiting}"
                )
                woken.failed_peer = src
                raise woken
            if (source in (ANY_SOURCE, src)) and tg == tag:
                return payload
            self._stash.append((src, tg, payload))

    # -- failure handling (ULFM-style) ----------------------------------

    def revoke(self) -> None:
        """Revoke the communicator: wake every other rank out of blocking
        ops.  Mirrors ULFM ``MPI_Comm_revoke``; several survivors may
        revoke at once."""
        self._world.revoke(self.rank)

    # -- collectives ----------------------------------------------------

    def _allgather(self, value: Any, timeout: float | None) -> list:
        """Every rank's *value*, in rank order: gathered to rank 0 and
        broadcast back over reserved tags.  A rank that dies or revokes
        wakes every waiter at once through the sentinel it leaves in each
        mailbox."""
        self.send((self.rank, value), dest=0, tag=_TAG_ALLGATHER)
        if self.rank != 0:
            return self.recv(source=0, tag=_TAG_BROADCAST, timeout=timeout)
        got = sorted(
            (self.recv(tag=_TAG_ALLGATHER, timeout=timeout)
             for _ in range(self.size)),
            key=lambda rv: rv[0],
        )
        values = [v for _r, v in got]
        for dest in range(1, self.size):
            self.send(values, dest=dest, tag=_TAG_BROADCAST)
        return values

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] = None):
        """All-ranks reduction, folded in rank order; default op is addition."""
        if op is None:
            op = lambda a, b: a + b  # noqa: E731
        return functools.reduce(op, self._allgather(value, self.timeout))


def run_ranks(
    n_ranks: int,
    fn: Callable[[Communicator], Any],
    timeout: float = 60.0,
    comm_timeout: float | None = DEFAULT_TIMEOUT,
    comm_wrap: Callable[[Communicator], Any] | None = None,
    return_errors: bool = False,
    slot_bytes: int = DEFAULT_SLOT_BYTES,
) -> list[Any] | tuple[list[Any], list[tuple[int, BaseException]]]:
    """Execute *fn(comm)* on *n_ranks* ranks; return per-rank results.

    Parameters
    ----------
    timeout:
        Wall-clock bound [s] on the whole group (deadlock guard): one
        deadline, however many ranks; its expiry raises a
        :class:`~repro.errors.CommTimeoutError` listing the ranks still
        running.
    comm_timeout:
        Default timeout handed to every rank's :class:`Communicator`.
    comm_wrap:
        Optional decorator applied to each rank's communicator before it
        is handed to *fn* — the hook the resilience layer uses to splice
        fault injection into the transport.
    return_errors:
        When true, rank failures are *returned* instead of re-raised:
        the call yields ``(results, errors)`` where *errors* is the list
        of ``(rank, exception)`` pairs in failure order.  This is the
        mode the survivable runtime uses: survivors return their state
        normally while the dead rank's exception is reported alongside.
    slot_bytes:
        Size of the preallocated shared-memory slots through which the
        ranks hand each other ndarrays (:mod:`repro.par.process_world`);
        a larger one goes through the pipe.

    The caller runs as rank 0 and ranks ``1..n-1`` are forked.  With two
    or more ranks the caller must be this process's only live thread and
    is refused with a :class:`~repro.errors.CommunicationError` otherwise
    (forking beside a thread that holds a lock deadlocks the child).
    *fn* and its results cross by fork and by pickle, so what *fn* does
    to the caller's objects on ranks other than 0 stays in those ranks.

    If a rank raises (and *return_errors* is false), the first failure is
    re-raised in the caller with ``failed_rank`` set to the offending
    rank id; sibling ranks are woken via mailbox poisoning rather than
    left to time out.
    """
    if n_ranks < 1:
        raise CommunicationError("need at least one rank")

    def make_comm(world, rank):
        comm = Communicator(world, rank, timeout=comm_timeout)
        return comm if comm_wrap is None else comm_wrap(comm)

    from repro.par.process_world import run_rank_processes

    results, errors = run_rank_processes(
        n_ranks, fn, make_comm, timeout, slot_bytes
    )
    for rank, exc in errors:
        if getattr(exc, "failed_rank", None) is None:
            try:
                exc.failed_rank = rank
            except AttributeError:
                pass  # exceptions with __slots__: rank stays in the note
    if return_errors:
        return results, errors
    if errors:
        rank, exc = errors[0]
        if hasattr(exc, "add_note"):
            exc.add_note(f"raised on simulated MPI rank {rank}")
        raise exc
    return results


def _group_timeout(timeout: float, alive: list[int]) -> CommTimeoutError:
    """The whole group ran out of time: say which ranks had not finished."""
    return CommTimeoutError(
        f"simulated MPI run timed out after {timeout}s — deadlock "
        f"suspected; ranks still running: {alive}",
        op="run_ranks",
        pending=[f"rank {r}" for r in alive],
    )
