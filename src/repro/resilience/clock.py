"""Simulated wall-clock of the forecast computation.

The deadline supervisor needs to know how long each model step *would*
take on real hardware.  Rather than inventing a constant, the clock
prices one step through the same event-driven hardware model the
performance study uses (:class:`repro.hw.streams.StreamSimulator`): the
Fig.-2 pipeline's compute kernels (NLMASS, two NLMNT2 momentum sweeps,
OUTPUT) are submitted per block to asynchronous queues, and straggler
faults enter as the stream simulator's ``slowdown``.  Dropping a nest
level or coarsening the output cadence therefore reduces the priced
step cost mechanistically — the same lever the paper's performance model
exposes.
"""

from __future__ import annotations

from repro.hw.kernelcost import KernelInvocation
from repro.hw.registry import get_system
from repro.hw.streams import LaunchMode, StreamSimulator, queue_occupancy
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer


#: The Table-II system a step is priced on, here and by the service's
#: admission cost model (whose cache keys it also scopes).
PLATFORM = "squid-gpu"
#: Asynchronous queue count (the paper's saturated configuration).
N_QUEUES = 4
#: Multiplier folding the exchange phases into the priced compute cost
#: (the paper's post-optimization runs are compute-dominated).
COMM_OVERHEAD = 1.25


class SimulatedClock:
    """Accumulates simulated elapsed time, priced per step on
    :data:`PLATFORM`."""

    def __init__(self) -> None:
        self.platform = get_system(PLATFORM).platform
        self.elapsed_us = 0.0
        # key -> (cost_us, per-queue busy fraction over the makespan)
        self._cache: dict[tuple, tuple[float, dict[int, float]]] = {}

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_us * 1e-6

    def advance(self, us: float) -> None:
        self.elapsed_us += us

    def step_cost_us(
        self, model, slowdown: float = 1.0, with_outputs: bool = True
    ) -> float:
        """Price one step of *model* on the hardware model [us]."""
        cells_key = tuple(
            sorted((bid, st.block.nx * st.block.ny)
                   for bid, st in model.states.items())
        )
        key = (cells_key, round(slowdown, 6), with_outputs)
        if key not in self._cache:
            sim = StreamSimulator(
                self.platform,
                n_queues=N_QUEUES,
                mode=LaunchMode.ASYNC,
                slowdown=slowdown,
            )
            for bid, cells in cells_key:
                sim.submit(KernelInvocation("NLMASS", cells, f"mass b{bid}"))
                sim.submit(KernelInvocation("NLMNT2", cells, f"mntx b{bid}"))
                sim.submit(KernelInvocation("NLMNT2", cells, f"mnty b{bid}"))
                if with_outputs:
                    sim.submit(
                        KernelInvocation("OUTPUT", cells, f"out b{bid}")
                    )
            result = sim.run()
            self._cache[key] = (
                result.makespan_us * COMM_OVERHEAD,
                queue_occupancy(result.events, result.makespan_us),
            )
        return self._cache[key][0]

    def queue_occupancy(
        self, model, slowdown: float = 1.0, with_outputs: bool = True
    ) -> dict[int, float]:
        """Per-queue busy fraction of the priced step schedule."""
        self.step_cost_us(model, slowdown=slowdown, with_outputs=with_outputs)
        cells_key = tuple(
            sorted((bid, st.block.nx * st.block.ny)
                   for bid, st in model.states.items())
        )
        return self._cache[(cells_key, round(slowdown, 6), with_outputs)][1]

    def charge_step(self, model, slowdown: float = 1.0) -> float:
        """Advance the clock by one step of *model*; returns the cost [us].

        Output accumulation is only charged on the steps the model
        actually updates it (the ``output_every`` degradation lever).
        """
        with_outputs = (model.step_count + 1) % model.output_every == 0
        cost = self.step_cost_us(
            model, slowdown=slowdown, with_outputs=with_outputs
        )
        self.advance(cost)
        if get_tracer().enabled:
            reg = get_registry()
            reg.gauge(
                "repro_sim_elapsed_seconds",
                "simulated wall-clock charged so far",
            ).set(self.elapsed_s)
            for q, frac in self.queue_occupancy(
                model, slowdown=slowdown, with_outputs=with_outputs
            ).items():
                reg.gauge(
                    "repro_queue_occupancy",
                    "busy fraction of one simulated device queue",
                    labels={"queue": str(q)},
                ).set(frac)
        return cost
