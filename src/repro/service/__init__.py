"""Overload-safe multi-tenant forecast service.

The layer above a single run: admission control with a bounded
earliest-deadline-first queue, per-tenant bulkheads, per-backend circuit
breakers, class-aware load shedding through the resilience layer's
degradation ladder, a content-addressed single-flight result cache, and
a deterministic simulated-clock soak harness.  See
:mod:`repro.service.service` for the service contract.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "admission": "CostEstimator project_schedule scenario_cells_by_level",
    "backend": "BackendResult LocalBackend SimulatedBackend",
    "breaker": "CircuitBreaker",
    "cache": "CacheEntry SingleFlightCache",
    "clock": "VirtualClock",
    "queue": "BoundedDeadlineQueue",
    "request": "CLASS_RANK CLASS_SHED_ACTIONS FULL_FIDELITY"
               " REQUEST_CLASSES Fidelity ForecastRequest"
               " canonical_scenario ladder_fidelities scenario_key",
    "service": "EventRing ForecastService ServiceConfig ServiceEvent"
               " Ticket",
    "soak": "SoakConfig SoakReport poisson_arrivals run_soak"
            " synthetic_scenarios",
})
