"""Row strips and who walks them, the per-thread scratch arena and the flat
frame of the kernels.

Every kernel intermediate is written through ``out=`` into views of one
grow-only buffer per thread (rank threads and the strip team's helpers each
have their own), so a step allocates nothing once the arena has seen its
largest strip.  NLMASS and NLMNT2 read a strip as flat 1-D ranges at one
row pitch (:func:`window`) and leave that frame only to write their
result: DESIGN.md §9b.  A strip reads only old buffers and writes only its
own rows, so :func:`each_strip` — the one way the kernels walk their strips
— shares a call of two or more with parked helper threads: the paper's
asynchronous queues (Figs. 10-11), for ufuncs.  DESIGN.md §9f.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from functools import lru_cache
from queue import SimpleQueue

import numpy as np

from repro.errors import ConfigurationError

#: Most elements (rows x padded width) one strip may hold.  A 128x128
#: block is one strip; a 768-wide block gets 31 rows.  The NumPy bodies keep
#: ~94 B/element of intermediates (2.4 MB), the compiled NLMNT2 twelve planes —
#: six a sweep, both sweeps of a strip at once — of the state's itemsize
#: (96 B/element in float64, 2.5 MB), beside the strip's inputs in the 4 MiB
#: L2.  Re-measured for the fused sweeps, not assumed: a 768^2 ``nlmnt2`` read
#: 7.1-7.7 ms at this cap, 7.5-7.8 at half of it (six planes' worth of scratch
#: again) and 7.4-7.8 at twice, two team members; on one CPU 13.7-14.2,
#: 13.8-14.2 and 13.2-13.7 (DESIGN.md section 9h).
STRIP_ELEMENTS = 24 * 1024

#: Most members (the caller and its helpers) of the team sharing a call's
#: strips, one per CPU the process may run on: the paper's queues stop
#: paying at four (its Fig. 11).  ``taskset -c 0`` gives a team of one.
TEAM_MAX = 4
#: Interpreter switch interval [s] inside a shared call; at CPython's 5 ms a
#: member sleeps that long for the lock the other re-takes after every ufunc.
TEAM_SWITCH_S = 5e-5


class _Arena(threading.local):
    def __init__(self) -> None:
        self.buf = np.empty(0, np.uint8)
        #: carve() arguments -> the views of ``buf`` they produced.
        self.views: dict = {}


_ARENA = _Arena()


def arena_nbytes() -> int:
    """Size of the calling thread's arena (grows, never shrinks)."""
    return _ARENA.buf.nbytes


def strips(start: int, stop: int, width: int) -> list[tuple[int, int, slice]]:
    """Fewest ``(lo, hi, whole)`` row ranges over ``start..stop`` within the cap,
    all of ``ceil(rows / n)`` rows but the last: never a strip and a sliver.
    *whole* opens the first and the last to the array's edge (the ghost rows)."""
    return list(_strips(start, stop, width, STRIP_ELEMENTS))


@lru_cache(maxsize=256)  # a block asks for the same few cuts on every step
def _strips(start: int, stop: int, width: int, cap: int) -> tuple:
    rows = stop - start
    n = -(-rows // max(1, cap // width))
    cuts = [*range(start, stop, -(-rows // n)), stop]
    ends = [None, *cuts[1:-1], None]
    return tuple(
        (lo, hi, slice(a, b)) for lo, hi, a, b in zip(cuts, cuts[1:], ends, ends[1:])
    )


class _Team:
    """Parked helper threads that walk one caller's strips at a time."""

    def __init__(self, size: int) -> None:
        self.inbox, self.outbox = SimpleQueue(), SimpleQueue()
        self.helpers = [
            threading.Thread(
                target=self._help, args=(k,), name=f"strip-team-{k}", daemon=True
            )
            for k in range(1, size)
        ]
        for helper in self.helpers:
            helper.start()

    def _help(self, member: int) -> None:
        for share in iter(self.inbox.get, None):  # None sends a helper home
            try:
                self.outbox.put(share(member))
            except BaseException as exc:  # noqa: BLE001 - the caller re-raises it
                self.outbox.put(exc)
            share = None  # parked, a helper keeps no caller's arrays alive

    def walk(self, body, cuts: list, kernel: str) -> None:
        from repro.obs.trace import get_tracer, span  # not above: a cycle

        tracer = get_tracer()
        obs_on = tracer.enabled
        context = tracer.current_context() if obs_on else None
        # Claimed dynamically, so a member whose CPU is taken away costs the
        # call one strip, not its half: the members share one iterator (a
        # list iterator's next() is one step under the interpreter lock).
        tickets = iter(cuts)

        def share(member: int) -> None:
            if member and obs_on:  # a helper's span hangs under the caller's
                tracer.set_context(trace=context)
            taken = 0
            with span(f"{kernel}.strips", cat="team", member=member) as sp:
                try:
                    for lo, hi, _whole in tickets:
                        body(lo, hi)
                        taken += 1
                finally:
                    for _ in tickets:  # an error ends the call for every member
                        pass
                    sp.set(strips=taken)

        woken = min(len(self.helpers), len(cuts) - 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(min(interval, TEAM_SWITCH_S))
        try:
            for _ in range(woken):
                self.inbox.put(share)
            share(0)
        finally:  # whatever happened here, no helper is left inside a strip
            errors = [self.outbox.get() for _ in range(woken)]
            sys.setswitchinterval(interval)
        for exc in filter(None, errors):
            raise exc


_BUSY = threading.Lock()  # held while the team walks, forms or disbands
_TEAM: _Team | None = None  # formed by the first call of two or more strips
_CPU_SHARE = 1  # processes the CPUs are shared among: disband_team()


def _after_fork() -> None:  # the child has the forking thread only
    global _BUSY, _TEAM
    _BUSY, _TEAM = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork)


def each_strip(body, cuts: list, kernel: str) -> None:
    """``body(lo, hi)`` for every ``(lo, hi, _)`` of *cuts* (:func:`strips`).

    Two or more strips are shared with the team — each member carves from its
    own arena, a helper's exception is re-raised here — unless there is one
    usable CPU or the team is busy with another (rank) thread's call: then,
    as with one strip, the caller walks alone.  *kernel* names the spans.
    """
    global _TEAM
    if len(cuts) > 1 and _BUSY.acquire(blocking=False):
        try:
            if _TEAM is None:  # one member per CPU of this process's share
                pinned = hasattr(os, "sched_getaffinity")
                cpus = len(os.sched_getaffinity(0)) if pinned else 1
                _TEAM = _Team(min(max(cpus // _CPU_SHARE, 1), TEAM_MAX))
            if _TEAM.helpers:
                return _TEAM.walk(body, cuts, kernel)
        finally:
            _BUSY.release()
    for lo, hi, _whole in cuts:
        body(lo, hi)


def disband_team(cpu_share: int = 1) -> None:
    """Send the helpers home and join them (for a caller about to count
    threads or to fork).  The next call of two or more strips, here or in a
    forked process, forms a team again from ``1 / cpu_share`` of the CPUs."""
    global _TEAM, _CPU_SHARE
    with _BUSY:
        team, _TEAM, _CPU_SHARE = _TEAM, None, cpu_share
        helpers = team.helpers if team else []
        for _ in helpers:
            team.inbox.put(None)
        for helper in helpers:
            helper.join()


def carve(dtype: np.dtype, *specs: tuple) -> list[tuple]:
    """Uninitialised scratch arrays out of the calling thread's arena.

    Each spec ``(n_float, n_bool, shape)`` yields a tuple of *dtype* arrays
    then a tuple of bool arrays of that shape (``(length,)`` for the kernels'
    flat ranges), C-contiguous and valid until this thread's next call.
    """
    arena, key = _ARENA, (dtype, specs)
    views = arena.views.get(key)
    if views is None:
        plan, need = [], 0
        for n_float, n_bool, shape in specs:
            for n, dt in ((n_float, dtype), (n_bool, np.dtype(bool))):
                plan.append(((n, *shape), dt, need))
                need += -(-n * math.prod(shape) * dt.itemsize // 64) * 64  # cache lines
        grown = arena.buf.nbytes < need
        if grown or len(arena.views) >= 256:  # stale, or too many shapes seen
            arena.views.clear()
        if grown:
            # Let go of the old buffer first: malloc then grows it in place
            # instead of stranding it under the new one (+6 MB per helper).
            arena.buf = np.empty(0, np.uint8)
            arena.buf = np.empty(need, np.uint8)
        views = arena.views[key] = [
            tuple(np.ndarray(shape, dt, arena.buf, lo)) for shape, dt, lo in plan
        ]
    return views


def sweep_planes(dtype: np.dtype, lanes: int, head: int, tail: int) -> tuple:
    """A strip of the compiled NLMNT2's six planes of *lanes* elements out of
    the calling thread's arena: their address, and plane 1 (``df_safe``) and
    plane 5 (its power) without their first *head* and last *tail* lanes, the
    face rows no target reads a power of.  Valid until this thread's next call."""
    arena, key = _ARENA, (dtype, lanes, head, tail)
    planes = arena.views.get(key)
    if planes is None:
        six, _ = carve(dtype, (6, 0, (lanes,)))
        inner = slice(head, lanes - tail)
        planes = arena.views[key] = (six[0].ctypes.data, six[1][inner], six[5][inner])
    return planes


def window(a: np.ndarray, pitch: int, lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
    """Flat offsets ``lo..hi`` of the row-pitch-*pitch* frame of *a*, as
    contiguous 1-D memory: a view if *a*'s rows lie *pitch* apart, else the
    rows covering the range copied (the strided pass) into *buf*."""
    if a.flags.c_contiguous and a.shape[1] == pitch:
        return a.reshape(-1)[lo:hi]
    r0, r1 = lo // pitch, -(-hi // pitch)
    np.copyto(buf[: (r1 - r0) * pitch].reshape(r1 - r0, pitch), a[r0:r1, :pitch])
    return buf[lo - r0 * pitch : hi - r0 * pitch]


def carry_over(out: np.ndarray, old: np.ndarray, rows: slice, cols: slice) -> None:
    """Copy *old* into *out* around ``[rows, cols]``: the ghost frame a kernel
    does not compute."""
    out[: rows.start] = old[: rows.start]
    out[rows.stop :] = old[rows.stop :]
    out[rows, : cols.start] = old[rows, : cols.start]
    out[rows, cols.stop :] = old[rows, cols.stop :]


def reject_aliasing(kernel: str, out: np.ndarray, *inputs: np.ndarray) -> None:
    """Raise if *out* may share memory with an input (bounds only): a later
    strip would read rows an earlier strip has already overwritten."""
    for a in inputs:
        if np.may_share_memory(out, a):
            raise ConfigurationError(
                f"{kernel}: the output array shares memory with an input; "
                "the kernels need distinct read and write buffers"
            )
