"""The guard-verdict registry: each run-health guard declared once.

A *guard* (the physics sentinel, the ABFT integrity layer) folds one
dimension of a run's trustworthiness into a *verdict*: one of a short
tuple of levels, best first.  Everything downstream of a run — service
counters, flight notes, settle banners, SLO feeds, soak tallies, the
run-directory artifact, ``repro inspect`` — iterates :data:`KINDS`, so a
new guard is one entry here plus the monitor that produces its verdict
(DESIGN.md, "Guard verdicts and run-directory artifacts").

Near-leaf: it imports only the equally plain :mod:`repro.artifacts`, so
the request path gets it for free; the kind-specific renderers stay with
their owners and are imported on first use.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from dataclasses import dataclass

from repro.artifacts import load_json_artifact, publish_json


def _deferred(module: str, attr: str) -> Callable:
    """``module.attr`` as a callable that imports *module* when called."""
    return lambda *args, **kwargs: getattr(
        importlib.import_module(module), attr
    )(*args, **kwargs)


@dataclass(frozen=True)
class GuardKind:
    """One registered guard verdict."""

    name: str
    #: What issues the verdict, for help texts ("physics sentinel").
    title: str
    #: Verdict levels, best first, worst last.
    levels: tuple[str, ...]
    #: The objective every verdict-carrying completion feeds, and the
    #: levels that keep its promise.
    slo: str
    slo_good: tuple[str, ...]
    #: The run-directory artifact: file name and schema stamp.
    artifact: str
    schema: str
    #: ``render(doc) -> (lines, ok)``, the ``repro inspect --<name>`` view,
    #: and ``brief(doc) -> str``, the kind-specific clause of the forecast
    #: summary line ("" or e.g. ", 2 sentinel abort(s)").
    render: Callable[[dict], tuple[list[str], bool]]
    brief: Callable[[dict], str]
    #: ``repro inspect --<name>`` exits: artifact absent (the guard was
    #: off) / worst verdict (a gate failure, not an error).
    exit_absent: int
    exit_worst: int
    #: How to obtain the artifact (hint of the absent-artifact error).
    absent_hint: str

    # -- derived ---------------------------------------------------------

    @property
    def attr(self) -> str:
        """Verdict attribute of reports and results; the flight-note kind."""
        return f"{self.name}_verdict"

    @property
    def best(self) -> str:
        return self.levels[0]

    @property
    def worst(self) -> str:
        return self.levels[-1]

    def of(self, obj) -> str | None:
        """The verdict *obj* carries, or None when this guard was off."""
        return getattr(obj, self.attr, None)

    def worst_of(self, verdicts) -> str:
        """Worst level among *verdicts* (the best one when empty)."""
        return max(verdicts, key=self.levels.index, default=self.best)

    # -- the artifact ----------------------------------------------------

    def doc(self, verdict=None, body=None, counts=None, requests=None) -> dict:
        """Assemble the artifact document.

        Two producers share the schema: a single run gives *body* (the
        monitor's own ledger), a service soak *counts* and the per-request
        *requests*.  The verdict is *verdict*, else the ledger's own, else
        the best level.
        """
        doc = {"schema": self.schema, "verdict": self.best, **(body or {})}
        if verdict is not None:
            doc["verdict"] = verdict
        if counts is not None:
            doc["counts"] = dict(counts)
        if requests is not None:
            doc["requests"] = list(requests)
        return doc

    def publish(self, path, doc: dict):
        """Atomically publish *doc* at *path*."""
        return publish_json(path, doc, indent=2)

    def load(self, path) -> dict:
        """Load the artifact at *path*, or raise ``PersistError``."""
        return load_json_artifact(
            path, self.schema, f"a {self.schema} document"
        )

    def render_soak(self, doc: dict) -> list[str]:
        """A soak document's tail: the verdict counts, then the first 20
        requests whose verdict is not the best one."""
        lines = []
        counts = doc.get("counts")
        if counts:
            per = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            lines.append(f"requests: {sum(counts.values())} ({per})")
        requests = doc.get("requests") or []
        if requests:
            bad = [r for r in requests if r.get("verdict") != self.best]
            lines.append(
                f"per-request verdicts: {len(requests)} total, "
                f"{len(bad)} not {self.best}"
            )
            lines += [
                f"  {r.get('request_id', '?')}: {r.get('verdict', '?')}"
                for r in bad[:20]
            ]
            if len(bad) > 20:
                lines.append(f"  ... {len(bad) - 20} more")
        return lines


PHYSICS = GuardKind(
    name="physics",
    title="physics sentinel",
    levels=("healthy", "suspect", "diverged"),
    slo="validity",
    slo_good=("healthy",),
    artifact="physics.json",
    schema="repro.obs.physics/1",
    render=_deferred("repro.obs.physics", "render_physics_doc"),
    brief=_deferred("repro.obs.physics", "physics_brief"),
    exit_absent=6,
    exit_worst=7,
    absent_hint="physics.json is written by `repro forecast --rundir DIR` "
                "and by soaks whose backend carries physics verdicts",
)

INTEGRITY = GuardKind(
    name="integrity",
    title="ABFT integrity",
    levels=("clean", "corrected", "corrupted"),
    slo="integrity",
    slo_good=("clean", "corrected"),
    artifact="integrity.json",
    schema="repro.resilience.integrity/1",
    render=_deferred("repro.resilience.integrity", "render_integrity_doc"),
    brief=_deferred("repro.resilience.integrity", "integrity_brief"),
    exit_absent=6,
    exit_worst=8,
    absent_hint="integrity.json is written by `repro forecast "
                "--integrity-every N --rundir DIR` and by soaks run "
                "with --corrupt-fraction",
)

#: The registered guards, in the order consumers report them.  Consumers
#: read this attribute at call time, so a test can extend it.
KINDS: tuple[GuardKind, ...] = (PHYSICS, INTEGRITY)
