"""Forecast requests: priority classes, deadlines, content-addressed identity.

A request names *what* to forecast (the scenario spec, the same
journalable shape ``repro.persist`` validates), *for whom* (tenant), *by
when* (a relative deadline budget), and *how important* it is (a request
class).  The class determines two overload behaviors:

* **shed order** — lower classes are evicted from the queue before
  higher ones when capacity runs out;
* **degradation ladder** — which of the resilience layer's
  graceful-degradation actions (:data:`repro.resilience.deadline.
  DEGRADATION_ORDER`) the service may plan for this request instead of
  rejecting it.  A ``critical`` request is never knowingly degraded —
  if full fidelity cannot meet the deadline it is rejected explicitly.

Identity for caching is **content-addressed**: two requests with the
same canonical scenario JSON (and execution platform) name the same
computation, whatever their tenant/class/deadline, so concurrent
duplicates can be collapsed into one run (single-flight).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

from repro.errors import ServiceError

#: Request classes, most important first.
REQUEST_CLASSES = ("critical", "high", "normal", "low")

#: class -> shed rank (0 sheds last, 3 sheds first).
CLASS_RANK = {name: rank for rank, name in enumerate(REQUEST_CLASSES)}

#: Degradation actions the service may *plan* per class, mildest first.
#: (The in-run DeadlineSupervisor may still take further actions as a
#: last resort — a degraded forecast always beats a silent miss.)
CLASS_SHED_ACTIONS: dict[str, tuple[str, ...]] = {
    "critical": (),
    "high": ("drop_level",),
    "normal": ("drop_level", "coarsen_output"),
    "low": ("drop_level", "coarsen_output", "finish_early"),
}

_IDS = itertools.count(1)


def canonical_scenario(scenario: dict) -> str:
    """Canonical JSON of a scenario spec (sorted keys, no whitespace)."""
    return json.dumps(scenario, sort_keys=True, separators=(",", ":"))


def scenario_key(scenario: dict, platform: str = "") -> str:
    """Content-addressed identity of one forecast computation."""
    payload = canonical_scenario(scenario) + "|" + platform
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Fidelity:
    """How degraded a planned execution is relative to the full request.

    Mirrors the degradation ladder: ``levels_dropped`` counts
    ``drop_level`` actions, ``output_every`` > 1 is ``coarsen_output``,
    ``horizon_frac`` < 1 is ``finish_early`` planned up front.
    """

    levels_dropped: int = 0
    output_every: int = 1
    horizon_frac: float = 1.0

    @property
    def is_full(self) -> bool:
        return (
            self.levels_dropped == 0
            and self.output_every == 1
            and self.horizon_frac >= 1.0 - 1e-12
        )

    @property
    def tag(self) -> str:
        if self.is_full:
            return "full"
        return (
            f"d{self.levels_dropped}"
            f"o{self.output_every}"
            f"h{self.horizon_frac:g}"
        )

    def actions(self) -> list[str]:
        """The ladder actions this fidelity encodes, mildest first."""
        out = []
        if self.levels_dropped:
            out.append("drop_level")
        if self.output_every > 1:
            out.append("coarsen_output")
        if self.horizon_frac < 1.0 - 1e-12:
            out.append("finish_early")
        return out


FULL_FIDELITY = Fidelity()


def ladder_fidelities(
    allowed_actions: tuple[str, ...],
    max_levels_droppable: int,
    max_output_every: int = 8,
    horizon_fracs: tuple[float, ...] = (0.75, 0.5),
) -> list[Fidelity]:
    """Successively degraded fidelities a class's ladder permits.

    Walks the same severity order as the in-run supervisor: drop nest
    levels one at a time, then coarsen the output cadence, then shorten
    the horizon.  Each entry includes all milder degradations already
    applied, so estimated costs are monotonically non-increasing.
    """
    out: list[Fidelity] = []
    dropped = 0
    cadence = 1
    if "drop_level" in allowed_actions:
        for dropped in range(1, max_levels_droppable + 1):
            out.append(Fidelity(levels_dropped=dropped))
    else:
        dropped = 0
    if "coarsen_output" in allowed_actions:
        cadence = max_output_every
        out.append(Fidelity(levels_dropped=dropped, output_every=cadence))
    if "finish_early" in allowed_actions:
        for frac in horizon_fracs:
            out.append(
                Fidelity(
                    levels_dropped=dropped,
                    output_every=cadence,
                    horizon_frac=frac,
                )
            )
    return out


@dataclass
class ForecastRequest:
    """One tenant's forecast demand.

    Parameters
    ----------
    scenario:
        The scenario spec ``repro validate`` checks (keys and defaults:
        :mod:`repro.persist.scenario`).  Synthetic scenarios used by the
        soak harness may instead carry ``cells_by_level`` directly.
    deadline_s:
        Budget from submission [s of service time] after which the
        forecast is worthless.
    klass:
        One of :data:`REQUEST_CLASSES`.
    """

    scenario: dict
    deadline_s: float
    tenant: str = "default"
    klass: str = "normal"
    request_id: str = field(default_factory=lambda: f"req-{next(_IDS)}")
    #: Stamped by the service at admission.
    submitted_s: float | None = None

    def __post_init__(self) -> None:
        if self.klass not in CLASS_RANK:
            raise ServiceError(
                f"unknown request class {self.klass!r}; "
                f"have {REQUEST_CLASSES}"
            )
        if not (self.deadline_s > 0):
            raise ServiceError(
                f"deadline_s must be positive, got {self.deadline_s!r}"
            )
        if not isinstance(self.scenario, dict) or not self.scenario:
            raise ServiceError("scenario must be a non-empty dict")

    @property
    def class_rank(self) -> int:
        return CLASS_RANK[self.klass]

    @property
    def allowed_actions(self) -> tuple[str, ...]:
        return CLASS_SHED_ACTIONS[self.klass]

    @property
    def deadline_abs(self) -> float:
        if self.submitted_s is None:
            raise ServiceError(
                f"{self.request_id} has no absolute deadline before "
                "submission"
            )
        return self.submitted_s + self.deadline_s

    def cache_key(self, platform: str = "") -> str:
        return scenario_key(self.scenario, platform)

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "class": self.klass,
            "deadline_s": self.deadline_s,
            "scenario": self.scenario,
        }

    def brief(self) -> dict:
        """Identity-only summary (no scenario payload) — the metadata a
        flight recorder or log line carries about the request."""
        return {
            "tenant": self.tenant,
            "class": self.klass,
            "deadline_s": self.deadline_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> ForecastRequest:
        """The request a :meth:`to_dict` document (or a line of a
        request file) describes; :class:`~repro.errors.ServiceError` on
        anything else."""
        if not isinstance(d, dict):
            raise ServiceError(
                f"a request is a JSON object, got {type(d).__name__}"
            )
        missing = [k for k in ("scenario", "deadline_s") if k not in d]
        if missing:
            raise ServiceError(f"request lacks {', '.join(missing)}")
        deadline = d["deadline_s"]
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            raise ServiceError(
                f"deadline_s must be a number, got {deadline!r}"
            )
        kwargs = {
            "scenario": d["scenario"],
            "deadline_s": d["deadline_s"],
            "tenant": d.get("tenant", "default"),
            "klass": d.get("class", d.get("klass", "normal")),
        }
        if "request_id" in d:
            kwargs["request_id"] = d["request_id"]
        return cls(**kwargs)
