"""Execution backends: where an admitted forecast actually runs.

A backend takes one admitted request plus its remaining compute budget
and returns a :class:`BackendResult` — the products, the fidelity they
were produced at, and the compute cost actually spent (in the same
simulated-seconds currency the service clock runs on, priced through
:class:`repro.resilience.clock.SimulatedClock`).

* :class:`LocalBackend` runs the real numerics via
  :func:`repro.resilience.forecast.run_resilient_forecast`, so the whole
  resilience stack (health monitor, checkpoint ring, deadline supervisor
  and its degradation ladder) sits under the service.  The request
  class's allowed ladder maps onto the engine's ``min_levels`` /
  ``max_output_every`` floors.
* :class:`SimulatedBackend` prices the run on the admission cost model
  (with deterministic per-scenario noise, so live calibration has
  something to learn) and returns a content digest as the product —
  fast enough for thousand-request soak runs, deterministic enough that
  "bitwise identical to an unloaded run" is still a checkable property.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro import guards
from repro.errors import NumericalError, ServiceError
from repro.obs.trace import span
from repro.service.admission import CostEstimator
from repro.service.request import (
    FULL_FIDELITY,
    Fidelity,
    ForecastRequest,
    canonical_scenario,
    ladder_fidelities,
)


@dataclass
class BackendResult:
    """What one execution produced."""

    payload: dict
    fidelity: Fidelity
    cost_s: float
    backend: str
    report: object = None
    #: Physics sentinel verdict of the producing run ("healthy" |
    #: "suspect" | "diverged"); None when physics sampling was off.
    physics_verdict: str | None = None
    #: ABFT verdict of the producing run ("clean" | "corrected" |
    #: "corrupted"); None when the integrity layer was off.
    integrity_verdict: str | None = None

    @property
    def degraded(self) -> bool:
        return not self.fidelity.is_full


class LocalBackend:
    """Runs the real numerics of a request's scenario under the
    resilience stack, built by :func:`repro.persist.scenario.build_scenario`,
    on the driver's defaults (integrity layer off)."""

    name = "local"

    def __init__(self) -> None:
        self.runs = 0

    def run(
        self,
        request: ForecastRequest,
        budget_s: float | None,
    ) -> BackendResult:
        from repro.persist.scenario import build_scenario
        from repro.resilience.forecast import run_resilient_forecast

        built = build_scenario(request.scenario)
        allowed = request.allowed_actions
        n_levels = built.grid.n_levels
        # Class ladder -> engine degradation floors.  finish_early stays
        # available as the engine's last resort regardless of class: an
        # explicitly shortened forecast beats a silent deadline miss.
        min_levels = n_levels if "drop_level" not in allowed else 1
        max_output_every = 1 if "coarsen_output" not in allowed else 8
        self.runs += 1
        report = run_resilient_forecast(
            built.grid,
            built.bathymetry,
            config=built.config,
            source=built.source,
            horizon_s=built.n_steps * built.config.dt,
            deadline_s=budget_s,
            min_levels=min_levels,
            max_output_every=max_output_every,
        )
        model = report.model
        fidelity = Fidelity(
            levels_dropped=report.n_levels_initial - report.n_levels_final,
            output_every=report.output_every_final,
            horizon_frac=(
                report.achieved_s / report.horizon_s
                if report.horizon_s > 0 else 1.0
            ),
        )
        payload = {
            "eta": {
                bid: st.eta_interior().copy()
                for bid, st in model.states.items()
            },
            "zmax": {
                bid: acc.zmax.copy() for bid, acc in model.outputs.items()
            },
            "max_eta": model.max_eta(),
        }
        result = BackendResult(
            payload=payload,
            fidelity=fidelity,
            cost_s=report.elapsed_s,
            backend=self.name,
            report=report,
        )
        for kind in guards.KINDS:
            setattr(result, kind.attr, kind.of(report))
        return result


class SimulatedBackend:
    """Cost-model-priced backend for deterministic overload soak runs.

    The cost of a run is the admission model's raw estimate scaled by a
    deterministic per-scenario noise factor in ``[1 - noise, 1 + noise]``
    (derived from the scenario hash, not Python's salted ``hash``), so
    the estimator's live calibration loop has real error to absorb.  The
    product is a content digest of ``(scenario, fidelity)`` — two runs
    of the same scenario at the same fidelity are bitwise identical by
    construction, and any cross-fidelity cache pollution shows up as a
    digest mismatch in the acceptance tests.
    """

    def __init__(
        self,
        name: str = "sim",
        estimator: CostEstimator | None = None,
        noise: float = 0.1,
        fail_when=None,
        diverge_fraction: float = 0.0,
        abort_budget_frac: float = 0.25,
        physics_verdicts: bool = True,
        corrupt_fraction: float = 0.0,
        corrupt_detect_fraction: float = 0.9,
    ) -> None:
        if not 0 <= noise < 1:
            raise ServiceError(f"noise must be in [0, 1), got {noise}")
        if not 0 <= diverge_fraction <= 1:
            raise ServiceError(
                f"diverge_fraction must be in [0, 1], got {diverge_fraction}"
            )
        if not 0 <= corrupt_fraction <= 1:
            raise ServiceError(
                f"corrupt_fraction must be in [0, 1], got {corrupt_fraction}"
            )
        if not 0 <= corrupt_detect_fraction <= 1:
            raise ServiceError(
                "corrupt_detect_fraction must be in [0, 1], got "
                f"{corrupt_detect_fraction}"
            )
        if not 0 < abort_budget_frac <= 1:
            raise ServiceError(
                f"abort_budget_frac must be in (0, 1], got {abort_budget_frac}"
            )
        self.name = name
        self.estimator = estimator or CostEstimator()
        self.noise = noise
        #: Optional ``callable(request) -> bool`` injecting failures.
        self.fail_when = fail_when
        #: Deterministic per-scenario fraction of runs whose numerics
        #: diverge; the simulated sentinel then aborts the run at
        #: *abort_budget_frac* of its deadline budget and stamps the
        #: result ``diverged`` — the priced analogue of the real
        #: sentinel's abort-early protocol.
        self.diverge_fraction = diverge_fraction
        self.abort_budget_frac = abort_budget_frac
        #: Attach physics verdicts to results (False = sampling off, as
        #: for a backend that never ran the in-situ engine).
        self.physics_verdicts = physics_verdicts
        #: Deterministic per-scenario fraction of runs hit by a
        #: simulated bit flip.  Of those, *corrupt_detect_fraction* are
        #: caught-and-rolled-back by the simulated ABFT layer (verdict
        #: ``corrected``); the rest escape as ``corrupted`` — the case
        #: the integrity SLO must flag, never silently complete.
        self.corrupt_fraction = corrupt_fraction
        self.corrupt_detect_fraction = corrupt_detect_fraction
        self.runs = 0
        self.runs_by_key: dict[str, int] = {}

    def _scenario_u(self, scenario: dict, salt: str = "") -> float:
        digest = hashlib.sha256(
            (canonical_scenario(scenario) + salt).encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def _noise_factor(self, scenario: dict) -> float:
        u = self._scenario_u(scenario)
        return 1.0 - self.noise + 2.0 * self.noise * u

    def _diverges(self, scenario: dict) -> bool:
        if not self.diverge_fraction:
            return False
        return self._scenario_u(scenario, salt="|diverge") < (
            self.diverge_fraction
        )

    def _corruption(self, scenario: dict) -> str:
        """Integrity verdict of this scenario's run, deterministically.

        *corrupt_fraction* of runs take a simulated bit flip; of those,
        *corrupt_detect_fraction* are caught by the simulated ABFT layer
        and repaired by quarantine rollback (``corrected``), the rest
        escape detection (``corrupted`` — the explicit verdict that
        keeps the wrong answer from being silent).
        """
        if self.corrupt_fraction and self._scenario_u(
            scenario, salt="|corrupt"
        ) < self.corrupt_fraction:
            caught = self._scenario_u(
                scenario, salt="|corrupt-detect"
            ) < self.corrupt_detect_fraction
            return "corrected" if caught else "corrupted"
        return "clean"

    def unloaded_payload(
        self, scenario: dict, fidelity: Fidelity = FULL_FIDELITY
    ) -> dict:
        """The exact payload an unloaded run of *scenario* produces."""
        digest = hashlib.sha256(
            (canonical_scenario(scenario) + "|" + fidelity.tag
             + "|" + self.name).encode("utf-8")
        ).hexdigest()
        return {"digest": digest, "fidelity": fidelity.tag}

    def run(
        self,
        request: ForecastRequest,
        budget_s: float | None,
    ) -> BackendResult:
        self.runs += 1
        key = request.cache_key(self.name)
        self.runs_by_key[key] = self.runs_by_key.get(key, 0) + 1
        # A span even for the priced (non-executing) backend, so soak
        # traces show every request's backend leg under its tree.
        with span("backend.run", cat="service",
                  backend=self.name, request_id=request.request_id):
            return self._run_priced(request, budget_s)

    def _run_priced(
        self,
        request: ForecastRequest,
        budget_s: float | None,
    ) -> BackendResult:
        if self.fail_when is not None and self.fail_when(request):
            raise NumericalError(
                f"injected backend failure for {request.request_id}"
            )
        scenario = request.scenario
        factor = self._noise_factor(scenario)
        # Walk the class's degradation ladder exactly as the in-run
        # supervisor would: mildest fidelity whose priced cost fits the
        # remaining budget wins.
        fidelity = FULL_FIDELITY
        cost = self.estimator.estimate_raw_s(scenario, fidelity) * factor
        if budget_s is not None and cost > budget_s:
            for fid in ladder_fidelities(
                request.allowed_actions,
                self.estimator.max_levels_droppable(scenario),
            ):
                c = self.estimator.estimate_raw_s(scenario, fid) * factor
                if c <= budget_s:
                    fidelity, cost = fid, c
                    break
            else:
                # Ladder exhausted (or class forbids it): run at the most
                # degraded permitted fidelity and overrun — the service
                # meters the miss loudly instead of hiding it.
                fids = ladder_fidelities(
                    request.allowed_actions,
                    self.estimator.max_levels_droppable(scenario),
                )
                if fids:
                    fidelity = fids[-1]
                    cost = (
                        self.estimator.estimate_raw_s(scenario, fidelity)
                        * factor
                    )
        verdict = "healthy" if self.physics_verdicts else None
        if self._diverges(scenario):
            # Simulated sentinel abort-early: the diverging run is cut
            # well inside its deadline budget instead of burning it all
            # the way to the NaN wall.
            verdict = "diverged"
            budget = budget_s if budget_s is not None else cost
            cost = min(cost, self.abort_budget_frac * budget)
        integrity = self._corruption(scenario)
        payload = self.unloaded_payload(scenario, fidelity)
        if integrity == "corrected":
            # One quarantine rollback's worth of replayed steps; the
            # answer itself is the clean one.
            cost *= 1.1
        elif integrity == "corrupted":
            # The flip escaped: the product really is a different (and
            # wrong) answer, so the digest diverges from the unloaded
            # reference — silent only if the verdict is ignored.
            payload = dict(payload, digest=hashlib.sha256(
                (payload["digest"] + "|flipped").encode("utf-8")
            ).hexdigest())
        return BackendResult(
            payload=payload,
            fidelity=fidelity,
            cost_s=cost,
            backend=self.name,
            physics_verdict=verdict,
            integrity_verdict=integrity,
        )
