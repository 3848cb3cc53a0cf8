"""Row strips and the per-thread scratch arena the kernels run out of.

Every kernel intermediate is written through ``out=`` into views of one
grow-only buffer per thread (rank threads each have their own), so a step
allocates nothing once the arena has seen its largest strip: DESIGN.md §9b.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError

#: Most elements (rows x padded width) one strip may hold.  A 128x128
#: block is one strip; a 768-wide block gets 31 rows, whose ~85 B/element
#: of intermediates (2 MB) share the 4 MiB L2 with the strip's inputs.
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


def carve(dtype: np.dtype, transposed: bool, *specs: tuple) -> list[tuple]:
    """Uninitialised scratch arrays out of the calling thread's arena.

    Each spec ``(n_float, n_bool, shape)`` yields a tuple of *dtype* arrays
    then a tuple of bool arrays of that shape, contiguous (column-major if
    *transposed*, like the N pass's views) until this thread's next call.
    """
    arena, key = _ARENA, (dtype, transposed, specs)
    views = arena.views.get(key)
    if views is None:
        plan, need = [], 0
        for n_float, n_bool, (rows, cols) in specs:
            for n, dt in ((n_float, dtype), (n_bool, np.dtype(bool))):
                shape = (n, cols, rows) if transposed else (n, rows, cols)
                plan.append((shape, dt, need))
                need += -(-n * rows * cols * dt.itemsize // 64) * 64  # cache lines
        grown = arena.buf.nbytes < need
        if grown:
            arena.buf = np.empty(need, np.uint8)
        if grown or len(arena.views) >= 256:  # stale, or too many shapes seen
            arena.views.clear()
        stacks = [np.ndarray(shape, dt, arena.buf, lo) for shape, dt, lo in plan]
        views = arena.views[key] = [
            tuple(s.transpose(0, 2, 1) if transposed else s) for s in stacks
        ]
    return views


def reject_aliasing(kernel: str, out: np.ndarray, *inputs: np.ndarray) -> None:
    """Raise if *out* may share memory with an input (bounds only): a later
    strip would read rows an earlier strip has already overwritten."""
    for a in inputs:
        if np.may_share_memory(out, a):
            raise ConfigurationError(
                f"{kernel}: the output array shares memory with an input; "
                "the kernels need distinct read and write buffers"
            )
