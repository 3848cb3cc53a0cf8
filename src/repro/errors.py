"""Exception hierarchy for the RTi reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single except clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GridError(ReproError):
    """Invalid grid geometry, nesting topology, or block layout."""


class NestingError(GridError):
    """Violation of the inclusive 3:1 nesting rules."""


class CFLError(ReproError):
    """Time step violates the Courant-Friedrichs-Lewy stability condition."""


class DecompositionError(ReproError):
    """Invalid domain decomposition (separators, rank/level constraints)."""


class CommunicationError(ReproError):
    """Simulated-MPI misuse: mismatched sends/recvs, bad buffers, deadlock."""

    #: The rank whose failure this error only passes on (a receive woken by
    #: a dead peer); ``None`` when the rank that raised it is the cause.
    failed_peer: int | None = None


class CommTimeoutError(CommunicationError):
    """A simulated communication operation exceeded its timeout.

    Raised by :meth:`repro.par.comm.Communicator.recv` (and so by the
    collectives built on it) when no matching message arrives within the
    communicator's timeout, and by
    :func:`repro.par.comm.run_ranks` when the whole group outlives its
    wall-clock bound.  Distinct from plain
    :class:`CommunicationError` (protocol misuse) so callers — notably the
    survivable runtime, which retries the epoch — can tell a transient
    stall from a programming error.

    Attributes
    ----------
    failed_rank:
        Rank on which the timeout fired, when known (else ``None``).
    source, dest, tag:
        Endpoints of the operation that timed out, when known — the
        recovery layer uses these to name the suspected-dead peer
        instead of guessing from the message text.
    op:
        Kind of operation ("recv", "run_ranks").
    pending:
        For a group timeout, the ranks still running (``"rank 2"``, ...).
    """

    def __init__(
        self,
        message: str,
        failed_rank: int | None = None,
        source: int | None = None,
        dest: int | None = None,
        tag: int | None = None,
        op: str | None = None,
        pending: list[str] | None = None,
    ) -> None:
        super().__init__(message)
        self.failed_rank = failed_rank
        self.source = source
        self.dest = dest
        self.tag = tag
        self.op = op
        self.pending = list(pending) if pending else []


class CommunicatorRevokedError(CommunicationError):
    """The communicator was revoked (ULFM-style) after a rank failure.

    Delivered to every blocked operation of every surviving rank when
    any rank calls :meth:`repro.par.comm.Communicator.revoke`, so the
    group collectively abandons the current communication epoch instead
    of dying one timeout at a time.
    """


class PlatformError(ReproError):
    """Unknown platform or inconsistent hardware model parameters."""


class ConfigurationError(ReproError):
    """Invalid simulation configuration."""


class ValidationError(ReproError):
    """A validation check failed (numerical or preflight).

    Preflight validation (:mod:`repro.persist.preflight`) attaches the
    complete list of :class:`~repro.persist.preflight.Finding` objects as
    ``.findings`` so callers can report every problem with a scenario at
    once instead of fixing them one re-run at a time.
    """

    def __init__(self, message: str, findings: list | None = None) -> None:
        super().__init__(message)
        self.findings = list(findings) if findings else []


class PersistError(ReproError):
    """On-disk run-store failure: unwritable run directory, corrupt or
    torn snapshot, checksum mismatch, unreadable journal, or a snapshot
    whose grid/decomposition fingerprint does not match the model it is
    being restored into.
    """


class NumericalError(ReproError):
    """The solution state is numerically unusable.

    Raised by the resilience health monitor when a per-step check fails:
    NaN/Inf contamination of a prognostic field, a blow-up past the
    plausible water-level bound, a violated CFL margin, or excessive
    mass-conservation drift.  The recovery engine treats it as a signal
    to roll back to the last good checkpoint.
    """


class IntegrityError(NumericalError):
    """Silent data corruption was detected by an integrity check.

    Raised by the ABFT layer (:mod:`repro.resilience.integrity`) when a
    block checksum or a checkpoint digest fails to verify:
    the state is *bitwise* wrong even though every value may still be
    finite and physically plausible — the corruption class the health
    monitor and divergence sentinel cannot see.  Subclasses
    :class:`NumericalError` so the recovery engine's rollback machinery
    treats a corruption verdict like any other unusable-state signal.

    Attributes
    ----------
    surface:
        Where the corruption was caught (``"state"``: the published
        state, checked through the leap-frog window).
    blocks:
        Block ids implicated by the failing checksums (the quarantine
        blast radius), when known.
    step:
        Model step at which the check fired, when known.
    """

    def __init__(
        self,
        message: str,
        surface: str | None = None,
        blocks: list | None = None,
        step: int | None = None,
    ) -> None:
        super().__init__(message)
        self.surface = surface
        self.blocks = list(blocks) if blocks else []
        self.step = step


class DeadlineError(ReproError):
    """The operational deadline cannot be met or is invalid.

    Raised when a deadline supervisor is constructed with a non-positive
    budget, or when even the most aggressive graceful-degradation policy
    cannot produce any forecast before the deadline.
    """


class ServiceError(ReproError):
    """Forecast-service failure (:mod:`repro.service`)."""


class ServiceOverloadError(ServiceError):
    """The service refused a request to protect the work it already holds.

    The HTTP-429 equivalent: raised at submission time by the admission
    controller when accepting the request would overload the service —
    the queue is full of equal-or-higher-priority work, the tenant's
    bulkhead is exhausted, every backend's circuit breaker is open, or
    the projected completion (cost model + queue ahead) misses the
    request's deadline even after the request class's whole degradation
    ladder.  ``retry_after_s`` is the service's estimate of when capacity
    frees up, when it can compute one.
    """

    def __init__(
        self, message: str, retry_after_s: float | None = None
    ) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class QueueFullError(ServiceOverloadError):
    """The bounded admission queue is full and nothing lower-priority
    than the incoming request could be shed to make room."""


class DeadlineUnmeetableError(ServiceOverloadError):
    """Projected completion misses the request deadline even at the most
    degraded fidelity the request's class allows — running it would only
    burn capacity on a forecast that arrives too late to matter."""


class TenantQuotaError(ServiceOverloadError):
    """The tenant's bulkhead (max queued + running requests) is full.

    Per-tenant quotas keep one noisy tenant from starving the rest; the
    rejection is per-tenant, so other tenants keep being admitted.
    """


class BackendUnavailableError(ServiceOverloadError):
    """Every execution backend's circuit breaker is open — recent runs
    kept failing, so the service fails fast instead of queueing work it
    cannot currently execute."""


class ObservatoryError(ReproError):
    """Performance-observatory failure.

    Raised by ``repro retune`` (:mod:`repro.obs.observatory`) for a run
    directory without recorded spans or an unknown grid name; base of
    :class:`CalibrationError`.
    """


class CalibrationError(ObservatoryError):
    """Online model calibration cannot produce a usable fit.

    Raised by :mod:`repro.balance.calibrate` when a trace carries kernel
    spans at fewer than two distinct block sizes, or when the recorded
    durations produce a degenerate (non-positive-slope) linear model.
    """
