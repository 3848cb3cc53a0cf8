"""SIGTERM/SIGINT capture: snapshot the model before dying.

An operational forecast killed by the scheduler (SIGTERM) or an
operator (Ctrl-C) should leave a resumable run directory, not a torn
one.  :func:`interrupt_guard` installs handlers for the duration of a
run loop; on delivery it converts the signal into
:class:`KeyboardInterrupt`, and as that leaves the guarded block — every
``with`` between has released its lock and closed its file — captures one
final snapshot (best effort) and journals the interruption.  The handler
writes nothing itself: it runs between any two bytecodes, say inside
:meth:`repro.obs.log.RunEvents.emit`'s lock.

Handlers are only installable from the main thread; elsewhere (a rank
thread of the simulated-MPI driver, a test runner worker) the guard
degrades to a no-op rather than failing.
"""

from __future__ import annotations

import contextlib
import signal
import threading

from repro.errors import PersistError

#: Signals the guard intercepts (SIGTERM may be absent on some platforms).
GUARDED_SIGNALS = tuple(
    s for s in (getattr(signal, "SIGTERM", None), signal.SIGINT) if s is not None
)


@contextlib.contextmanager
def interrupt_guard(snapshot_fn=None, journal_fn=None):
    """Context manager: snapshot-then-unwind on SIGTERM/SIGINT.

    Parameters
    ----------
    snapshot_fn:
        Zero-argument callable capturing the final snapshot.  Failures
        are swallowed (a half-working snapshot path must not mask the
        shutdown) — the journal records whether it succeeded.
    journal_fn:
        ``callable(signal_name, snapshotted: bool)`` recording the
        interruption durably.

    A second delivery unwinds at once, capturing nothing.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    fired: list[int] = []

    def _handler(signum, _frame):
        fired.append(signum)
        raise KeyboardInterrupt

    previous = {}
    try:
        for sig in GUARDED_SIGNALS:
            previous[sig] = signal.signal(sig, _handler)
    except (ValueError, OSError):
        # Not installable here (embedded interpreter, exotic platform):
        # restore whatever we managed to set and run unguarded.
        for sig, old in previous.items():
            signal.signal(sig, old)
        yield
        return
    try:
        yield
    except KeyboardInterrupt:
        if len(fired) == 1:
            snapshotted = False
            if snapshot_fn is not None:
                try:
                    snapshot_fn()
                    snapshotted = True
                except (PersistError, OSError):
                    pass
            if journal_fn is not None:
                try:
                    journal_fn(signal.Signals(fired[0]).name, snapshotted)
                except (PersistError, OSError):
                    pass
        raise
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
