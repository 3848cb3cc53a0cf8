"""One configuration for the guarded run: no knob that no product path sets.

A forecast centre runs the guards in one configuration on every platform,
so a threshold, cadence or size that no product caller changes is a named
module constant (DESIGN.md section 12, "One configuration"), not a
parameter.  This ratchet fails when one of them comes back as a parameter
of its class or function.  A parameter earns its place when two product
callers need different values.
"""

import inspect

import pytest

from repro.obs import flight, physics, slo
from repro.resilience import (
    checkpoint,
    clock,
    deadline,
    forecast,
    health,
    integrity,
    recovery,
    survive,
)
from repro.service import admission, backend, breaker, cache

GONE = [
    (health.HealthMonitor, "every eta_limit cfl_limit mass_tol"),
    (health.StepTimeMonitor, "mad_k min_ratio"),
    (deadline.DeadlineSupervisor, "margin"),
    (clock.SimulatedClock, "platform n_queues comm_overhead"),
    (integrity.IntegrityMonitor, "abort"),
    (checkpoint.CheckpointRing.snapshot, "validate"),
    (recovery.RecoveryEngine, "max_rollbacks"),
    (forecast.run_resilient_forecast, "max_rollbacks physics_every"),
    (survive.survivable_run_distributed, "perf_model"),
    (physics.PhysicsSampler, "every recorder alpha max_samples"),
    # The divergence sentinel folded into the sampler; its row keeps its
    # name and checks its parameters on the merged class.
    (physics.PhysicsSampler,
     "sampler mass_tol mass_slope_tol cfl_margin_floor eta_limit eta_floor"
     " eta_growth_factor anomaly_limit window patience abort",
     "DivergenceSentinel"),
    (slo.SLOEngine, "windows max_events"),
    (flight.FlightBook, "capacity keep"),
    (flight.FlightRecorder, "capacity"),
    (breaker.CircuitBreaker, "failure_threshold cooldown_s"),
    (admission.CostEstimator, "model platform n_queues comm_overhead alpha"),
    (backend.SimulatedBackend,
     "name estimator abort_budget_frac physics_verdicts"
     " corrupt_detect_fraction"),
    (cache.SingleFlightCache, "capacity"),
]


@pytest.mark.parametrize(
    "target, names",
    [row[:2] for row in GONE],
    ids=[row[2] if len(row) > 2 else row[0].__qualname__ for row in GONE],
)
def test_the_parameter_is_a_constant(target, names):
    params = inspect.signature(target).parameters
    assert [n for n in names.split() if n in params] == []


def test_the_table_is_the_fifty_two():
    # The three of the gauge-anomaly score went with the class.
    assert sum(len(row[1].split()) for row in GONE) + 3 == 52
    assert not hasattr(physics, "RobustScore")
