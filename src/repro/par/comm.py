"""Simulated MPI over two transports: rank threads and rank processes.

Ranks are Python callables; a :class:`Communicator` gives each of them
mpi4py-flavoured blocking point-to-point operations (tag matching with
a stash for out-of-order arrivals, timeouts) and one collective,
``allreduce``, run by those same messages in rank order.  Sends are
buffered, so a rank overlaps communication with work by sending first
and receiving late.  NumPy payloads are copied on send (MPI value
semantics) so races on the caller's buffers are impossible.  What
carries a message is the *world* behind the communicator, and
:func:`run_ranks` has two:

* **rank threads** (:class:`_World`, the default): one thread per rank
  over in-memory mailboxes, in one address space.  This is the
  correctness substrate — fault injection (``comm_wrap``) and the
  ULFM-style revoke/agree recovery of :mod:`repro.resilience.survive`
  need that one address space — but the threads share one interpreter
  lock, so they do not run the kernels in parallel;
* **rank processes** (``slot_bytes=...``,
  :mod:`repro.par.process_world`): the caller stays rank 0 and ranks
  ``1..n-1`` are forked; packed halos move through preallocated
  shared-memory slots, everything else pickled through pipes.  This is
  the transport that is faster than one rank;
  :func:`repro.par.driver.run_distributed` picks it whenever nothing it
  can observe rules it out.  It refuses ``revoke``/``agree_failures``
  rather than faking rank-kill support.

Both run the same pack/exchange/unpack code paths; modelled timing
comes from the separate cost model in :mod:`repro.par.timing`.

Failure semantics (the operational-resilience contract), on both:

* a rank that raises is recorded in ``_World.errors`` *with its rank id*
  and every sibling mailbox is poisoned, so ranks blocked in ``recv``
  fail immediately with a message naming the dead rank instead of dying
  on an opaque timeout;
* timeouts are configurable per :class:`Communicator` and raise
  :class:`~repro.errors.CommTimeoutError` (a
  :class:`~repro.errors.CommunicationError` subclass), so callers can
  distinguish a transient stall from protocol misuse; the group as a
  whole has one deadline, and its expiry names the ranks still running;
* on rank threads, a survivor that detects a failure can *revoke* the
  communicator (ULFM ``MPI_Comm_revoke`` semantics): every blocked operation on every
  rank fails with :class:`~repro.errors.CommunicatorRevokedError`, after
  which the group runs an agreement round
  (:meth:`Communicator.agree_failures`, ULFM ``MPIX_Comm_agree``) to
  reach a consistent view of the dead-rank set before rebuilding.
"""

from __future__ import annotations

import functools
import queue
import threading
import time
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


class _World:
    """Shared mailboxes and failure state for one group of rank threads."""

    #: One address space: ``Communicator`` makes the send copy itself and
    #: revoke/agree are available.
    #: (:class:`repro.par.process_world._ProcessWorld` says ``False``.)
    in_process = True

    def __init__(self, size: int) -> None:
        self.size = size
        # mailbox[dest] holds (source, tag, payload) tuples.
        self.mailboxes = [queue.Queue() for _ in range(size)]
        #: (rank, exception) pairs, in order of failure.
        self.errors: list[tuple[int, BaseException]] = []
        self._fail_lock = threading.Lock()
        #: Ranks known dead, and the agreement-round state (ULFM-style).
        self.dead: set[int] = set()
        self.revoked = threading.Event()
        self._agree_cv = threading.Condition()
        self._agree_votes: set[int] = set()

    def fail(self, rank: int, exc: BaseException) -> None:
        """Record a rank failure and wake every blocked sibling.

        A poison message naming the dead rank is delivered to every
        mailbox so receivers — collective ones included — fail fast
        instead of timing out.  The dead set is updated and any
        in-progress agreement round is notified so it can converge
        without the dead rank's vote.
        """
        with self._fail_lock:
            self.errors.append((rank, exc))
        with self._agree_cv:
            self.dead.add(rank)
            self._agree_cv.notify_all()
        for dest in range(self.size):
            if dest != rank:
                self.mailboxes[dest].put((rank, 0, _POISON))

    def revoke(self, rank: int) -> None:
        """Revoke the communicator on behalf of surviving *rank*.

        Idempotent.  Delivers a revocation sentinel to every other
        mailbox so blocked operations fail with
        :class:`~repro.errors.CommunicatorRevokedError` instead of
        timing out one by one.
        """
        already = self.revoked.is_set()
        self.revoked.set()
        if not already:
            for dest in range(self.size):
                if dest != rank:
                    self.mailboxes[dest].put((rank, 0, _REVOKED))
        with self._agree_cv:
            self._agree_cv.notify_all()


class Communicator:
    """Per-rank view of the world (mpi4py-like lowercase API).

    Parameters
    ----------
    world:
        Shared transport state.
    rank:
        This communicator's rank id.
    timeout:
        Default timeout [s] for blocking operations (``recv``,
        ``allreduce``, ``agree_failures``); ``None`` waits forever.
    """

    def __init__(
        self,
        world: _World,
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
        if isinstance(obj, np.ndarray):
            # Between processes the copy into the peer's slot is the copy.
            payload = obj.copy() if self._world.in_process else obj
            if _TRACER.enabled:
                _sent_bytes(obj.nbytes)
        else:
            payload = obj
        self._world.mailboxes[dest].put((self.rank, tag, payload))

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
        """Revoke the communicator: wake every rank out of blocking ops.

        Mirrors ULFM ``MPI_Comm_revoke``.  Safe to call from several
        survivors concurrently.
        """
        self._needs_rank_threads("revoke")
        self._world.revoke(self.rank)

    def _needs_rank_threads(self, what: str) -> None:
        if not self._world.in_process:
            raise CommunicationError(
                f"rank {self.rank}: {what} is not supported between rank "
                f"processes — rank-kill recovery needs the rank-thread "
                f"world (survivable_run_distributed runs on it)"
            )

    def agree_failures(
        self, timeout: float | None = _UNSET
    ) -> tuple[int, ...]:
        """Agreement round over the failed-rank set (ULFM ``MPIX_Comm_agree``).

        Blocks until every rank not known dead has entered the round,
        then returns the agreed, sorted tuple of dead ranks — identical
        on every survivor.  A rank dying *during* the round is absorbed:
        its death shrinks the quorum and lands in the returned set.
        """
        self._needs_rank_threads("agree_failures")
        if timeout is _UNSET:
            timeout = self.timeout
        w = self._world
        deadline = None if timeout is None else time.monotonic() + timeout
        with w._agree_cv:
            w._agree_votes.add(self.rank)
            w._agree_cv.notify_all()
            while True:
                alive = set(range(w.size)) - w.dead
                if alive <= w._agree_votes:
                    return tuple(sorted(w.dead))
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    missing = sorted(alive - w._agree_votes)
                    raise CommTimeoutError(
                        f"rank {self.rank}: failure-agreement round timed"
                        f" out after {timeout}s waiting for ranks"
                        f" {missing}",
                        failed_rank=self.rank,
                        op="agree",
                    )
                w._agree_cv.wait(remaining)

    # -- collectives ----------------------------------------------------

    def _allgather(self, value: Any, timeout: float | None) -> list:
        """Every rank's *value*, in rank order: gathered to rank 0 and
        broadcast back over reserved tags, by the same messages on both
        worlds.  A rank that dies or revokes wakes every waiter at once
        through the sentinel it leaves in each mailbox."""
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
    slot_bytes: int | None = None,
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
        ``None`` (the default) runs the ranks as threads of this process.
        A byte count runs them as processes — the caller as rank 0,
        ranks ``1..n-1`` forked — that hand each other ndarrays of up to
        that size through preallocated shared-memory slots
        (:mod:`repro.par.process_world`).  The caller must be this
        process's only live thread and is refused otherwise (forking
        beside a thread that holds a lock deadlocks the child); *fn* and
        its results cross by fork and by
        pickle, so what *fn* does to the caller's objects on ranks other
        than 0 stays in those ranks.

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

    if slot_bytes is None:
        results, errors = _run_rank_threads(n_ranks, fn, make_comm, timeout)
    else:
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


def _run_rank_threads(n_ranks, fn, make_comm, timeout):
    """One thread per rank over a :class:`_World`: ``(results, errors)``."""
    world = _World(n_ranks)
    results: list[Any] = [None] * n_ranks

    # Trace context crosses the thread boundary here: capture the
    # spawner's context once and bind it on every rank thread, so a
    # request's rank-level spans hang under the service's request span
    # (one trace tree per request in the Chrome export).
    tracer = get_tracer()
    trace_ctx = tracer.current_context() if tracer.enabled else None

    def _runner(rank: int) -> None:
        if trace_ctx is not None:
            tracer.set_context(trace=trace_ctx)
        try:
            results[rank] = fn(make_comm(world, rank))
        except BaseException as exc:  # noqa: BLE001 - re-raised by run_ranks
            world.fail(rank, exc)

    threads = [
        threading.Thread(target=_runner, args=(r,), daemon=True)
        for r in range(n_ranks)
    ]
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + timeout
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
    except BaseException:
        # Interrupted (a signal turned into KeyboardInterrupt): revoke on
        # behalf of no rank, so every rank fails at its next receive
        # instead of stepping on until its comm timeout.
        world.revoke(-1)
        raise
    alive = [r for r, t in enumerate(threads) if t.is_alive()]
    if alive:
        raise _group_timeout(timeout, alive)
    return results, list(world.errors)


def _group_timeout(timeout: float, alive: list[int]) -> CommTimeoutError:
    """The whole group ran out of time: say which ranks had not finished."""
    return CommTimeoutError(
        f"simulated MPI run timed out after {timeout}s — deadlock "
        f"suspected; ranks still running: {alive}",
        op="run_ranks",
        pending=[f"rank {r}" for r in alive],
    )
