"""Fixtures shared by the suite."""

import pytest

from repro.par import driver
from tests import rank_worlds


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
    forked rank still alive, or a ``/dev/shm/repro-*`` name, when the
    last test is done."""
    left = rank_worlds.left_behind()
    if left:
        print(f"\nleft behind by the test session: {left}")
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
