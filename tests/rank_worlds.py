"""How ``run_distributed`` sized its rank processes, and what it left behind."""

import contextlib
import glob
import os
import threading
import time
from unittest import mock

from repro.par import driver


def wait_for_one_thread(seconds: float = 5.0) -> None:
    """Let an earlier test's daemon thread end: with a live one, a
    multi-rank run is refused (the caller must be the only thread)."""
    deadline = time.monotonic() + seconds
    while threading.active_count() != 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == 1, threading.enumerate()


@contextlib.contextmanager
def slot_sizes(caller=driver):
    """The ``(n_ranks, slot_bytes)`` of every ``run_ranks`` call that
    *caller* (``run_distributed``'s module, or the survivable runtime's)
    makes inside the block."""
    seen = []
    real = caller.run_ranks

    def spy(n_ranks, *args, **kwargs):
        seen.append((n_ranks, kwargs["slot_bytes"]))
        return real(n_ranks, *args, **kwargs)

    with mock.patch.object(caller, "run_ranks", spy):
        yield seen


@contextlib.contextmanager
def forked_ranks():
    """The multi-rank ``run_distributed`` calls inside the block start
    from a caller that is its process's only thread, and leave neither a
    child nor a shared-memory name behind."""
    wait_for_one_thread()
    with slot_sizes() as seen:
        yield seen
    assert_nothing_left_behind()


def child_pids() -> list[int]:
    """Live or zombie children of this process (Linux ``/proc``)."""
    me, out = os.getpid(), []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # it exited while we were looking
        if int(fields[1]) == me:
            out.append(int(stat.split("/")[2]))
    return out


def left_behind() -> list[str]:
    """Children still there, and shared-memory names nobody unlinked.

    The slot rings are an anonymous mapping, so the second list is empty
    by construction — until someone moves them to a named segment."""
    return [f"child process {pid}" for pid in child_pids()] + glob.glob(
        "/dev/shm/repro-*"
    )


def assert_nothing_left_behind() -> None:
    assert left_behind() == []
