"""Fixtures shared by the suite."""

import threading

import pytest

from repro.core import scratch
from repro.par import driver
from tests import executors, rank_worlds


@pytest.fixture(autouse=True)
def no_team_left_behind():
    """A test that made a kernel call of two or more strips leaves parked
    helper threads: send them home, so the next test starts as a fresh
    process would (``rank_worlds.wait_for_one_thread`` counts threads)."""
    yield
    scratch.disband_team()


@pytest.fixture
def numpy_executor():
    """The kernels on their NumPy bodies: for what is asserted of those
    (ufunc budgets), whatever executor this platform would choose."""
    with executors.on_numpy():
        yield


@pytest.fixture
def rank_threads(monkeypatch):
    """Keep ``run_distributed`` on rank threads, through the selector it
    hands ``run_ranks`` (``slot_bytes=None``).

    For tests that observe *every* rank through in-process monkeypatches
    or shared lists: a forked rank would run the patched code but keep
    its calls to itself, and the assertion would silently narrow to rank
    0 (the launcher).
    """
    monkeypatch.setattr(driver, "_slot_bytes", lambda *_args: None)


@pytest.fixture
def rank_processes():
    """The test's multi-rank ``run_distributed`` calls must have forked."""
    with rank_worlds.forked_ranks() as seen:
        yield seen


def pytest_sessionfinish(session):
    """Fail a suite that outlives itself (CI's ``check`` job runs it): a
    forked rank still alive, a ``/dev/shm/repro-*`` name, or a thread the
    interpreter would wait for at exit, when the last test is done."""
    left = rank_worlds.left_behind() + [
        repr(t) for t in threading.enumerate()
        if t is not threading.main_thread() and not t.daemon
    ]
    if left:
        print(f"\nleft behind by the test session: {left}")
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
