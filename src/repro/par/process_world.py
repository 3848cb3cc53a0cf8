"""Rank processes: the second transport under ``Communicator``.

Rank threads share one interpreter lock, so two of them advance their
blocks more slowly than one rank does (ROADMAP item 4 measured 0.71x).
Here ranks ``1..n-1`` are forked from the caller, which stays rank 0 —
the tracer, the metrics registry and anything else observing the calling
process still see a real rank — and each directed rank pair ``(s, d)``
gets

* a **slot ring** in one shared mapping created before the fork:
  ``N_SLOTS`` slots of ``slot_bytes`` (the largest packed message of the
  run's ``StepPlan``, :func:`repro.par.driver._slot_bytes`) — the
  Listing-6 buffer, preallocated once and addressable by the peer.  A
  send copies the array into the next slot (that copy *is* the
  value-semantics copy of ``Communicator.send``), a receive copies it
  out and hands the slot back through a semaphore that counts the free
  ones;
* a **pipe** carrying one small record per message — ``kind, tag,
  length`` then a body — which is also the wake-up: for a slot message
  the body is ``(slot, dtype, shape)``, for anything that is not a
  fitting ndarray (gather tuples, an array larger than a slot, a full
  ring, results, exceptions) it is the pickled payload itself.

Every pipe end is non-blocking.  A writer that finds its pipe full takes
whatever has arrived for its own rank while it waits for room, so two
ranks sending each other more than a pipe holds both finish: sends stay
buffered, as they are on threads.  Each process keeps only its own ends
open, so end-of-file on ``s -> d`` means ``s`` is gone: after a goodbye
record that is a rank that finished, without one it is a rank that died
(``SIGKILL``), and the reader poisons its own mailbox at once — no
timeout, no polling.  See :func:`run_rank_processes` for the failure
contract and DESIGN.md section 9e for the measurements.

Imported only by :func:`repro.par.comm.run_ranks` when it is asked for
rank processes: workloads that never fork do not pay for
``multiprocessing``.
"""

from __future__ import annotations

import collections
import mmap
import multiprocessing
import os
import pickle
import queue
import select
import signal
import struct
import threading
import time
import traceback

import numpy as np

from repro.errors import CommTimeoutError, CommunicationError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.par.comm import _POISON, _group_timeout

#: Slots per directed rank pair.  ``run_step`` keeps at most a level's
#: links in flight between two ranks; a fuller ring falls back to the pipe.
N_SLOTS = 8

#: Slot alignment [bytes]: any NumPy dtype may view a slot start.
_ALIGN = 64

#: ``kind, tag, body length`` in front of every record on a pipe.
_HEADER = struct.Struct("<BqI")
_OBJECT, _SLOT, _POISONED, _DONE, _REPORT = range(5)

#: Most bytes taken from a pipe per read (the default pipe capacity).
_CHUNK = 1 << 16

_SIGNALS = (signal.SIGINT, signal.SIGTERM)

#: How long a rank with a CPU to itself polls its pipes before it sleeps
#: in ``select`` [s]: about what being put to sleep and woken again costs
#: on the 2-vCPU box.  ``run_step`` answers every seam message with one,
#: so a 100-step ``mosaic_2rank`` op holds 1,200 such round trips; polling
#: took it from 1.16-1.83 s to 0.99-1.10 s (four interleaved series, 200
#: us; 500 and 2000 us read the same).  With more ranks than CPUs the
#: peer needs the CPU the poll would burn (mini-Kochi, 10 ranks on 2
#: CPUs, 120 steps: 1.0 s without, 1.7 s with), so those ranks sleep at
#: once.
_POLL_S = 200e-6


class _Outbox:
    """This rank's writing end towards one peer: its pipe and slot ring."""

    def __init__(self, world: _ProcessWorld, dest: int) -> None:
        pair = (world.rank, dest)
        self._world = world
        self._fd = world.pipes[pair][1]
        self._free = world.free_slots[pair]
        self._ring = world.ring_at[pair]
        self._head = 0
        # Records of one pipe must not interleave and slots are handed
        # out in record order, whichever thread of this rank sends.
        self._lock = threading.Lock()

    def put(self, item) -> None:
        _src, tag, payload = item
        world = self._world
        if payload is _POISON:
            self.write(_POISONED)
        elif (
            isinstance(payload, np.ndarray)
            and payload.nbytes <= world.slot_bytes
            and payload.dtype.kind in "biufc"
            and self._free.acquire(False)
        ):
            with self._lock:
                slot = self._head % N_SLOTS
                self._head += 1
                at = self._ring + slot * world.slot_bytes
                np.copyto(
                    np.ndarray(payload.shape, payload.dtype, world.slots, at),
                    payload,
                )
                meta = (slot, payload.dtype.str, payload.shape)
                self._write(_SLOT, tag, pickle.dumps(meta))
        else:
            self.write(
                _OBJECT, tag, pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
            )

    def write(self, kind: int, tag: int = 0, body: bytes = b"") -> None:
        with self._lock:
            self._write(kind, tag, body)

    def _write(self, kind: int, tag: int, body: bytes) -> None:
        data = memoryview(_HEADER.pack(kind, tag, len(body)) + body)
        while data:
            try:
                data = data[os.write(self._fd, data):]
            except BlockingIOError:
                # Full pipe: wait for room while taking what has arrived
                # for this rank, or two ranks sending each other more than
                # a pipe holds would wait on each other forever.
                self._world.inbox.pump(None, self._fd)
            except BrokenPipeError:
                # The peer has exited.  As on threads, a message to a rank
                # that is gone is never read; if it died, this rank learns
                # so from its own inbox.
                return


class _Inbox:
    """What has arrived for this rank, over one pipe per peer."""

    def __init__(self, world: _ProcessWorld) -> None:
        self._world = world
        self._ready: collections.deque = collections.deque()
        self._fds = {
            world.pipes[(src, world.rank)][0]: src
            for src in range(world.size)
            if src != world.rank
        }
        #: Bytes of a record whose rest has not arrived, per source.
        self._partial = {src: bytearray() for src in self._fds.values()}
        #: Sources that said goodbye: their end-of-file is not a death.
        self._finished: set[int] = set()
        #: Records and end-of-files taken so far (progress, for ``pump``).
        self._events = 0
        self._lock = threading.Lock()

    def put(self, item) -> None:
        """Self-sends and re-delivered sentinels."""
        src, tag, payload = item
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        self._ready.append((src, tag, payload))

    def get(self, timeout: float | None = None):
        """Next ``(source, tag, payload)``; ``queue.Empty`` on expiry."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                return self._ready.popleft()
            except IndexError:
                pass
            left = None if deadline is None else deadline - time.monotonic()
            if left is not None and left <= 0:
                raise queue.Empty
            self.pump(left)

    def pump(self, timeout: float | None, room_on: int | None = None) -> None:
        """Take what the pipes hold; else wait for more (or for room to
        write on *room_on*) for at most *timeout*.  Callers loop."""
        if self._drain(self._fds):
            return
        world = self._world
        if world.poll:
            until = time.perf_counter() + _POLL_S
            while time.perf_counter() < until:
                if self._drain(self._fds):
                    return
        if world.deadline is not None:
            left = world.deadline - time.monotonic()
            if left <= 0:
                raise world.timed_out()
            timeout = left if timeout is None else min(timeout, left)
        readable, _, _ = select.select(
            list(self._fds), () if room_on is None else (room_on,), (),
            timeout,
        )
        self._drain(readable)

    def _drain(self, fds) -> bool:
        """One non-blocking read per pipe; did anything happen (a record
        of any kind, an end-of-file)?"""
        with self._lock:
            before = self._events
            for fd in list(fds):
                src = self._fds.get(fd)
                if src is None:
                    continue
                try:
                    chunk = os.read(fd, _CHUNK)
                except BlockingIOError:
                    continue
                if not chunk:
                    self._events += 1
                    del self._fds[fd]
                    self._world.close_fd(fd)
                    if src not in self._finished:
                        self._world.lost(src)
                    continue
                held = self._partial[src]
                if held:
                    held += chunk
                    del held[: self._parse(src, held)]
                else:
                    held += chunk[self._parse(src, chunk):]
            return self._events > before

    def _parse(self, src: int, data) -> int:
        """Deliver every whole record of *data*; return the bytes used."""
        at = 0
        while len(data) - at >= _HEADER.size:
            kind, tag, n_body = _HEADER.unpack_from(data, at)
            end = at + _HEADER.size + n_body
            if end > len(data):
                break
            self._deliver(src, kind, tag, data[at + _HEADER.size:end])
            at = end
        return at

    def _deliver(self, src: int, kind: int, tag: int, body) -> None:
        world = self._world
        self._events += 1
        if kind == _SLOT:
            slot, dtype, shape = pickle.loads(body)
            pair = (src, world.rank)
            at = world.ring_at[pair] + slot * world.slot_bytes
            payload = np.ndarray(shape, dtype, world.slots, at).copy()
            world.free_slots[pair].release()
            self._ready.append((src, tag, payload))
        elif kind == _OBJECT:
            self._ready.append((src, tag, pickle.loads(body)))
        else:
            self._finished.add(src)
            if kind == _POISONED:
                self._ready.append((src, 0, _POISON))
            elif kind == _REPORT:
                world.reported(src, pickle.loads(body))


class _ProcessWorld:
    """Pipes, slot rings and children of one group of rank processes.

    Built in the launcher before the fork, so every rank inherits the
    mapping, the semaphores and the pipe ends; :meth:`bind` then makes
    the copy in each process that rank's own view.
    """

    #: Not one address space: ``Communicator`` lets the transport make the
    #: send copy, runs collectives by messages and refuses revoke/agree.
    in_process = False

    def __init__(self, size: int, slot_bytes: int, timeout: float) -> None:
        self._ctx = ctx = multiprocessing.get_context("fork")
        self.size = size
        self.rank: int | None = None
        self.slot_bytes = -(-max(slot_bytes, 1) // _ALIGN) * _ALIGN
        #: Wall-clock bound on the group; enforced by the launcher only.
        self.deadline: float | None = time.monotonic() + timeout
        self.timeout = timeout
        #: A CPU per rank: poll before sleeping (see ``_POLL_S``).
        self.poll = size <= (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        )
        self.errors: list[tuple[int, BaseException]] = []
        self._fail_lock = threading.Lock()  # Communicator.irecv's worker
        #: Launcher: child by rank, and what each sent home (``None`` for
        #: a child that died without reporting).
        self.procs: dict[int, multiprocessing.Process] = {}
        self.reports: dict[int, tuple | None] = {}
        self.rank0_running = False
        #: The group-deadline error, once raised (it is nobody's failure).
        self.gave_up: CommTimeoutError | None = None
        pairs = [(s, d) for s in range(size) for d in range(size) if s != d]
        ring = N_SLOTS * self.slot_bytes
        self.ring_at = {pair: k * ring for k, pair in enumerate(pairs)}
        self.slots = mmap.mmap(-1, max(len(pairs) * ring, 1))
        self.free_slots = {pair: ctx.Semaphore(N_SLOTS) for pair in pairs}
        self._open_fds: set[int] = set()
        self.pipes: dict[tuple[int, int], tuple[int, int]] = {}
        try:
            for pair in pairs:
                self.pipes[pair] = ends = os.pipe()
                self._open_fds.update(ends)
                for fd in ends:
                    os.set_blocking(fd, False)
        except OSError:
            self.close()
            raise

    # -- per-process view ------------------------------------------------

    def bind(self, rank: int) -> None:
        """Keep only *rank*'s pipe ends; build its mailboxes."""
        self.rank = rank
        if rank != 0:
            self.deadline = None
        for (src, dst), (reader, writer) in self.pipes.items():
            if dst != rank:
                self.close_fd(reader)
            if src != rank:
                self.close_fd(writer)
        self.inbox = _Inbox(self)
        #: ``Communicator`` puts into ``mailboxes[dest]`` and gets from
        #: ``mailboxes[rank]``, as it does on rank threads.
        self.mailboxes = [
            self.inbox if r == rank else _Outbox(self, r)
            for r in range(self.size)
        ]

    def close_fd(self, fd: int) -> None:
        if fd in self._open_fds:
            self._open_fds.discard(fd)
            os.close(fd)

    def say(self, kind: int) -> None:
        """Write a goodbye record to every other child (rank 0 never needs
        one: a child's goodbye to the launcher is its report)."""
        for dest in range(1, self.size):
            if dest != self.rank:
                self.mailboxes[dest].write(kind)

    # -- launcher side ---------------------------------------------------

    def fork(self, fn, make_comm, trace_ctx) -> None:
        """Start ranks ``1..n-1``, then become rank 0."""
        # A signal landing between the fork and the child's handler reset
        # would run the launcher's handler (journal ``interrupted``) twice.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _SIGNALS)
        try:
            for rank in range(1, self.size):
                proc = self._ctx.Process(
                    target=_rank_process,
                    args=(self, rank, fn, make_comm, trace_ctx, mask),
                    name=f"repro-rank-{rank}",
                    daemon=True,
                )
                proc.start()
                self.procs[rank] = proc
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        self.bind(0)

    def fail(self, exc: BaseException) -> None:
        """Rank 0 raised: record it and wake every child."""
        self.errors.append((0, exc))
        self.say(_POISONED)

    def reported(self, src: int, report: tuple) -> None:
        self.reports[src] = report
        ok, value = report[:2]
        if not ok:
            self.errors.append((src, value))
            self.inbox.put((src, 0, _POISON))

    def lost(self, src: int) -> None:
        """End-of-file from *src* without a goodbye: it died."""
        if self.rank == 0:
            proc = self.procs[src]
            proc.join(1.0)
            self.reports[src] = None
            self.errors.append((src, CommunicationError(
                f"rank {src} (pid {proc.pid}) died without reporting "
                f"(exit code {proc.exitcode})"
            )))
        self.inbox.put((src, 0, _POISON))

    def timed_out(self) -> CommTimeoutError:
        alive = [0] if self.rank0_running else []
        alive += [r for r in self.procs if r not in self.reports]
        self.gave_up = _group_timeout(self.timeout, alive)
        return self.gave_up

    def collect(self, results: list) -> None:
        """Wait for every child's report; fold it into this process."""
        while len(self.reports) < len(self.procs):
            self.inbox.pump(None)
        tracer, registry = get_tracer(), get_registry()
        for rank, report in self.reports.items():
            if report is None:
                continue
            ok, value, rows, counters = report
            if ok:
                results[rank] = value
            tracer.adopt(rows, tid=self.procs[rank].pid, prefix=f"r{rank}.")
            for name, labels, help_, delta in counters:
                registry.counter(name, help_, dict(labels)).inc(delta)

    def close(self) -> None:
        """Reap every child, close every pipe end, drop the mapping."""
        for proc in self.procs.values():
            if proc.is_alive():
                proc.kill()
            proc.join()
            proc.close()
        for fd in list(self._open_fds):
            self.close_fd(fd)
        try:
            self.slots.close()
        except BufferError:  # a view survives in a traceback: unmapped with it
            pass


def _counter_values() -> dict:
    return {key: c.value for key, c in get_registry().counters().items()}


def _rank_process(world, rank, fn, make_comm, trace_ctx, mask) -> None:
    """Body of one forked rank: run *fn*, send home what happened."""
    for sig in _SIGNALS:
        signal.signal(sig, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    world.bind(rank)
    # The launcher's spans were copied by the fork; only what this rank
    # records goes home, hung under the span open at the fork.
    tracer = get_tracer()
    tracer.forked(trace_ctx)
    counted = _counter_values()
    try:
        ok, value = True, fn(make_comm(world, rank))
    except BaseException as exc:  # noqa: BLE001 - raised again by the launcher
        ok, value = False, exc
        if hasattr(exc, "add_note"):
            exc.add_note(
                f"traceback on rank {rank} (pid {os.getpid()}):\n"
                + "".join(traceback.format_exception(exc))
            )
        world.say(_POISONED)
    else:
        world.say(_DONE)
    counters = [
        (name, labels, c.help, c.value - counted.get((name, labels), 0.0))
        for (name, labels), c in get_registry().counters().items()
        if c.value > counted.get((name, labels), 0.0)
    ]
    rows = tracer.rows()
    try:
        body = pickle.dumps((ok, value, rows, counters))
    except Exception as why:  # noqa: BLE001 - whatever refuses to pickle
        lost = CommunicationError(
            f"rank {rank}: {'result' if ok else 'exception'} could not be "
            f"sent to the launcher ({why!r}): {value!r}"
        )
        body = pickle.dumps((False, lost, rows, counters))
    world.mailboxes[0].write(_REPORT, 0, body)


def run_rank_processes(n_ranks, fn, make_comm, timeout, slot_bytes):
    """Run ``fn(make_comm(world, rank))`` on the caller and forked ranks.

    Returns ``(results, errors)`` for :func:`repro.par.comm.run_ranks`,
    under the failure contract of :mod:`repro.par.comm`:

    * a rank that raises poisons its peers before it reports, and its own
      exception (with the remote traceback as a note) comes back in
      *errors* ahead of the failures it caused;
    * a child that dies silently is noticed at end-of-file on its pipes
      by every peer at once and reported by the launcher as a
      :class:`~repro.errors.CommunicationError` naming it — also ahead of
      the failures it caused (``failed_peer`` set), whichever the launcher
      happened to read first;
    * *timeout* is one deadline for the whole group: rank 0's blocking
      operations and the wait for the children's reports stop at it with
      a :class:`~repro.errors.CommTimeoutError` listing the ranks still
      running;
    * children start with ``SIGINT``/``SIGTERM`` at their defaults and an
      empty tracer, so a signalled run is journaled once, by the launcher;
    * whatever happens — ``KeyboardInterrupt`` included — every child is
      reaped and every pipe end and the slot mapping are closed before
      this returns.  The mapping is anonymous: there is no name under
      ``/dev/shm`` that a killed launcher could leave behind.
    """
    if threading.active_count() != 1:
        raise CommunicationError(
            "rank processes fork the caller, which must be this process's "
            "only live thread (a lock another thread holds at the fork is "
            f"never released in the child); found {threading.enumerate()}"
        )
    tracer = get_tracer()
    trace_ctx = tracer.current_context() if tracer.enabled else None
    rank_was = tracer.bound_rank()
    results: list = [None] * n_ranks
    world = _ProcessWorld(n_ranks, slot_bytes, timeout)
    try:
        world.fork(fn, make_comm, trace_ctx)
        world.rank0_running = True
        try:
            results[0] = fn(make_comm(world, 0))
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - a rank failure
            if exc is world.gave_up:
                raise
            world.fail(exc)
        finally:
            world.rank0_running = False
            tracer.set_context(rank=rank_was)
        world.collect(results)
    finally:
        world.close()
    # By cause, not by arrival: a sibling woken by a dead rank's end-of-file
    # can report before the launcher reads that end-of-file itself.
    return results, sorted(
        world.errors, key=lambda e: getattr(e[1], "failed_peer", None) is not None
    )
