"""Row strips, the per-thread scratch arena and the flat frame of the kernels.

Every kernel intermediate is written through ``out=`` into views of one
grow-only buffer per thread (rank threads each have their own), so a step
allocates nothing once the arena has seen its largest strip.  NLMASS and
NLMNT2 read a strip as flat 1-D ranges at one row pitch (:func:`window`)
and leave that frame only to write their result: DESIGN.md §9b.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError

#: Most elements (rows x padded width) one strip may hold.  A 128x128
#: block is one strip; a 768-wide block gets 31 rows, whose ~94 B/element
#: of intermediates (2.4 MB) share the 4 MiB L2 with the strip's inputs.
STRIP_ELEMENTS = 24 * 1024


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
        if grown:
            arena.buf = np.empty(need, np.uint8)
        if grown or len(arena.views) >= 256:  # stale, or too many shapes seen
            arena.views.clear()
        views = arena.views[key] = [
            tuple(np.ndarray(shape, dt, arena.buf, lo)) for shape, dt, lo in plan
        ]
    return views


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
