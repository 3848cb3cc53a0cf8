"""The four ledger workloads.

Each workload builds its inputs from the seed (source position/amplitude
and, for the service, the request order — nothing else), exposes one
timed ``op()``, and checks every result outside the timed region.  The
program under test only ever sees the generated inputs.

Heavy imports happen in :meth:`Workload.build`, after the runner has
timed importing :attr:`Workload.IMPORTS`, so import cost lands in
``setup.import_ms`` and nowhere else.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import resource
import time
from dataclasses import dataclass

from metrics import BASIN, MOSAIC, NESTED, SERVICE


@dataclass
class Sample:
    """One attempted op: its kind, wall time and why it failed (if so)."""

    kind: str  # "op" | "miss" | "hit"
    wall_s: float
    error: str | None = None
    #: Machine speed around the op (see :class:`SpeedGauge`); 1 = nominal.
    speed: float = 1.0
    #: Service misses only: wall of ``backend.run`` inside the request.
    backend_s: float | None = None


class SpeedGauge:
    """How fast the machine runs right now, against a fixed reference loop.

    The container this ledger was sized on shares its host: for minutes
    at a time every op runs 10-40 % slower, whatever the code under test
    does (a burner on the second core changes nothing; the host's other
    tenants do).  A median over the ops of one run cannot remove a shift
    that outlasts the run, so each timed op is bracketed by this loop —
    NumPy ufuncs on small arrays driven from Python, the same instruction
    mix as the solver's glue and kernels, none of the repo's code — and
    reported in seconds *at reference speed*: ``wall * speed``.  Raw wall
    times are kept and printed beside the rescaled ones.
    """

    #: Wall of one :meth:`read` loop on that container with nothing else
    #: running; fixing it keeps the unit of rescaled metrics seconds.
    REFERENCE_S = 0.034

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a, self._b = rng.random((2, 50, 50))
        self._out = np.empty_like(self._a)

    def read(self) -> float:
        """Speed relative to the reference machine: below 1 means slower."""
        import numpy as np

        a, b, out = self._a, self._b, self._out
        t0 = time.perf_counter()
        for _ in range(3000):
            np.multiply(a, b, out=out)
            np.add(out, a, out=out)
            np.maximum(out, 0.5, out=out)
            np.sqrt(out, out=out)
            _ = out[1:-1, 1:-1] - out[:-2, 1:-1]
        return self.REFERENCE_S / (time.perf_counter() - t0)


def _eta_sha(eta_by_block: dict) -> str:
    h = hashlib.sha256()
    for bid in sorted(eta_by_block):
        h.update(eta_by_block[bid].tobytes())
    return h.hexdigest()


def _perturb(rng: random.Random, x0, y0, amplitude) -> tuple:
    """Seeded source: position within 5 %, amplitude within 10 %."""
    return (
        x0 * (1.0 + rng.uniform(-0.05, 0.05)),
        y0 * (1.0 + rng.uniform(-0.05, 0.05)),
        amplitude * (1.0 + rng.uniform(-0.10, 0.10)),
    )


class Workload:
    """Base: a seeded op measured for a time budget and checked each time."""

    name = ""
    IMPORTS: tuple[str, ...] = ()
    #: Fewest rounds a measurement may rest on, however short the budget.
    MIN_ROUNDS = 3

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.rng = random.Random(seed)
        self.quick = quick
        self.setup_ms: dict[str, float] = {}
        self.cells_steps = 0  # cell updates performed by one op
        self.result_digest = ""
        #: ``ru_maxrss`` after set-up and the first measured round: fixed
        #: work, so it does not grow with how many rounds the budget fits.
        self.peak_rss_mb = 0.0
        self._first_sha: str | None = None
        self._speed: float | None = None  # the gauge's latest reading

    @functools.cached_property
    def gauge(self) -> SpeedGauge:
        return SpeedGauge()

    def speed_before(self) -> float:
        """The gauge reading that ended the previous timed region, if any."""
        return self._speed or self.gauge.read()

    def speed_around(self, before: float) -> float:
        """Read the gauge after a timed region; mean of before and after."""
        self._speed = self.gauge.read()
        return 0.5 * (before + self._speed)

    def seconds_at_reference(self, fn) -> float:
        """Wall of ``fn()``, rescaled to reference machine speed."""
        before = self.speed_before()
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        return wall * self.speed_around(before)

    # -- to implement ----------------------------------------------------

    def build(self) -> None:
        """Grid/bathymetry, model or service, initial condition."""
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def eta_of(self, result) -> dict:
        """Final water level per block of one op's result (views)."""
        raise NotImplementedError

    def check_result(self, result) -> str | None:
        """Workload-specific verdict; the base adds finiteness + digest."""
        return None

    def prepare(self) -> None:
        """Untimed reset before each op (default: nothing to reset)."""

    def short_op(self) -> None:
        """The op on a few steps, unchecked: the warm-up that ends set-up
        (anything built lazily on first use lands in ``setup_s``) and the
        op the blind-probe guard watches."""
        raise NotImplementedError

    def build_oracle(self) -> None:
        """Whatever ``check`` compares against, if it has to be computed."""

    # -- shared ----------------------------------------------------------

    def _timed(self, label: str, t0: float) -> float:
        now = time.perf_counter()
        self.setup_ms[label] = (now - t0) * 1e3
        return now

    def check(self, result) -> str | None:
        """Why *result* is wrong, or ``None``.  Never inside a timed region.

        Every op of a workload repeats the same computation, so beyond the
        workload's own oracle all results must share one SHA-256 of the
        final water level — that is also the ``result_digest`` printed for
        later PRs to compare against.
        """
        import numpy as np

        eta = self.eta_of(result)
        if not all(np.isfinite(a).all() for a in eta.values()):
            return "non-finite water level"
        why = self.check_result(result)
        if why is not None:
            return why
        sha = _eta_sha(eta)
        if self._first_sha is None:
            self._first_sha = self.result_digest = sha
        elif sha != self._first_sha:
            return "final water level differs between identical ops"
        return None

    def corrupt(self, result) -> None:
        """Test hook: perturb one water-level cell of *result* in place."""
        eta = self.eta_of(result)
        eta[min(eta)][0, 0] += 1.0

    def run_once(self, tamper=None) -> list[Sample]:
        """One op, timed, then checked outside the timed region."""
        from repro.obs.trace import span

        self.prepare()
        before = self.speed_before()
        t0 = time.perf_counter()
        try:
            with span("ledger.op", cat="ledger", workload=self.name):
                result = self.op()
        except Exception as exc:  # noqa: BLE001 - an op failing is data
            return [Sample("op", time.perf_counter() - t0,
                           f"{type(exc).__name__}: {exc}")]
        wall = time.perf_counter() - t0
        speed = self.speed_around(before)
        if tamper is not None:
            tamper(result)
        return [Sample("op", wall, self.check(result), speed)]

    def final_check(self) -> str | None:
        """Verdict over the whole measurement (default: nothing to add)."""
        return None

    def measure(self, seconds: float, tamper=None) -> list[Sample]:
        """``run_once`` back to back for about *seconds*, MIN_ROUNDS at least.

        Stops when the next round would end further past the budget than
        stopping now falls short of it.
        """
        samples: list[Sample] = []
        rounds = 0
        t0 = time.perf_counter()
        while True:
            if rounds >= self.MIN_ROUNDS:
                elapsed = time.perf_counter() - t0
                if elapsed + 0.5 * elapsed / rounds >= seconds:
                    break
            samples.extend(self.run_once(tamper))
            rounds += 1
            if rounds == 1:
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        return samples


class NestedForecast(Workload):
    name = NESTED
    IMPORTS = ("repro.topo", "repro.core", "repro.fault",
               "repro.resilience.forecast")

    def build(self) -> None:
        from repro.core import RTiModel, SimulationConfig
        from repro.fault import GaussianSource
        from repro.topo import build_mini_kochi

        t = time.perf_counter()
        self.mk = build_mini_kochi()
        t = self._timed("build_grid", t)
        x0, y0, amp = _perturb(self.rng, 4_000.0, 16_000.0, 2.0)
        self.source = GaussianSource(x0=x0, y0=y0, amplitude=amp,
                                     sigma=2_500.0)
        self.config = SimulationConfig(dt=self.mk.dt)
        self.steps = 20 if self.quick else 300
        self.probe_steps = self.steps  # RTiModel.step calls timed singly
        #: A bare model of the same problem: the layer probes' state.
        self.model = RTiModel(self.mk.grid, self.mk.bathymetry, self.config)
        self.model.set_initial_condition(self.source)
        self._timed("model_init", t)
        self.cells_steps = self.mk.grid.n_cells * self.steps

    def op(self, steps: int | None = None):
        from repro.resilience.forecast import run_resilient_forecast

        return run_resilient_forecast(
            self.mk.grid, self.mk.bathymetry, config=self.config,
            source=self.source,
            horizon_s=(steps or self.steps) * self.config.dt,
        )

    def short_op(self) -> None:
        self.op(steps=min(self.steps, 25))  # reaches every guard's cadence

    def eta_of(self, report) -> dict:
        return {b: st.eta_interior()
                for b, st in report.model.states.items()}

    def check_result(self, report) -> str | None:
        if report.status != "complete":
            return f"forecast status {report.status!r}"
        if report.physics_verdict != "healthy":
            return f"physics verdict {report.physics_verdict!r}"
        if report.achieved_s < report.horizon_s - 1e-9:
            return f"achieved {report.achieved_s} of {report.horizon_s} s"
        return None


class BasinLarge(Workload):
    name = BASIN
    IMPORTS = ("repro.validation.analytic", "repro.fault")

    def build(self) -> None:
        from repro.fault import GaussianSource
        from repro.validation.analytic import (
            SlopedBathymetry,
            single_block_model,
        )

        n, dx = (96, 50.0) if self.quick else (768, 50.0)
        self.steps = 4 if self.quick else 12
        self.probe_steps = 4 if self.quick else 30
        t = time.perf_counter()
        # Depth falls from 200 m to zero at 90 % of the domain: the last
        # tenth is a dry beach the wave runs up.
        bathy = SlopedBathymetry(200.0, 200.0 / (0.9 * n * dx))
        t = self._timed("build_grid", t)
        self.model = single_block_model(n, n, dx, bathy, boundary="wall")
        x0, y0, amp = _perturb(self.rng, n * dx / 2, n * dx / 3, 2.0)
        self.source = GaussianSource(x0=x0, y0=y0, amplitude=amp,
                                     sigma=n * dx / 12)
        self.model.set_initial_condition(self.source)
        self._timed("model_init", t)
        (self.state,) = self.model.states.values()
        self._ic = {k: a.copy() for k, a in self.state.state_arrays().items()}
        self._volume0 = self.model.total_volume()
        self.cells_steps = n * n * self.steps

    def prepare(self) -> None:
        # Back to the initial condition (fluxes included) so every op does
        # identical work and shares one digest.
        self.state.load_state_arrays(self._ic, 0)
        self.model.set_initial_condition(self.source)

    def op(self):
        self.model.run(self.steps)
        return self.model

    def short_op(self) -> None:
        self.model.run(2)

    def eta_of(self, model) -> dict:
        return {b: st.eta_interior() for b, st in model.states.items()}

    def check_result(self, model) -> str | None:
        drift = abs(model.total_volume() - self._volume0) / self._volume0
        if not drift <= 1e-9:
            return f"level-1 volume drifted by {drift:.3e}"
        return None


class Mosaic2Rank(Workload):
    name = MOSAIC
    IMPORTS = ("repro.core", "repro.fault", "repro.grid.hierarchy",
               "repro.par.decomposition", "repro.par.driver",
               "repro.validation.analytic")
    N_RANKS = 2

    def build(self) -> None:
        from repro.constants import GRAVITY
        from repro.core import RTiModel, SimulationConfig
        from repro.fault import GaussianSource
        from repro.grid.block import Block
        from repro.grid.hierarchy import NestedGrid
        from repro.grid.level import GridLevel
        from repro.par.decomposition import equal_cell_assignment
        from repro.validation.analytic import SlopedBathymetry

        nb, dx = (24, 100.0) if self.quick else (128, 100.0)
        self.steps = 10 if self.quick else 100
        t = time.perf_counter()
        blocks = [Block(4 * j + i, 1, i * nb, j * nb, nb, nb)
                  for j in range(2) for i in range(4)]
        self.grid = NestedGrid([GridLevel(index=1, dx=dx, blocks=blocks)])
        width, height = 4 * nb * dx, 2 * nb * dx
        self.bathy = SlopedBathymetry(100.0, 100.0 / (0.9 * height))
        self.decomp = equal_cell_assignment(
            self.grid, self.N_RANKS, split_blocks=False
        )
        self.decomp_1rank = equal_cell_assignment(
            self.grid, 1, split_blocks=False
        )
        t = self._timed("build_grid", t)
        dt = 0.5 * dx / math.sqrt(2.0 * GRAVITY * 100.0)
        self.config = SimulationConfig(dt=dt, boundary="wall")
        x0, y0, amp = _perturb(self.rng, width / 2, height / 3, 1.0)
        self.source = GaussianSource(x0=x0, y0=y0, amplitude=amp,
                                     sigma=width / 25)
        #: Single-process model of the same problem: the bitwise oracle
        #: (integrated by ``build_oracle``, outside set-up) and the core
        #: probes' state.
        self.model = RTiModel(self.grid, self.bathy, self.config)
        self.model.set_initial_condition(self.source)
        self._timed("model_init", t)
        self._reference: dict = {}
        self.cells_steps = self.grid.n_cells * self.steps

    def op(self, decomp=None, steps: int | None = None):
        from repro.par.driver import run_distributed

        return run_distributed(
            self.grid, self.bathy, self.config, decomp or self.decomp,
            self.source, steps or self.steps,
        )

    def short_op(self) -> None:
        self.op(steps=3)

    def eta_of(self, gathered) -> dict:
        return gathered

    def build_oracle(self) -> None:
        self.model.run(self.steps)
        self._reference = {
            b: st.eta_interior().copy()
            for b, st in self.model.states.items()
        }

    def check_result(self, gathered) -> str | None:
        import numpy as np

        ref = self._reference
        if gathered.keys() != ref.keys():
            return "gathered blocks differ from the single-process model"
        for bid, eta in ref.items():
            if not np.array_equal(gathered[bid], eta):
                return f"block {bid} not bitwise equal to single-process run"
        return None


class TimedBackend:
    """Times ``backend.run`` from outside: the service/backend boundary."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.walls: list[float] = []

    def run(self, request, budget_s):
        t0 = time.perf_counter()
        try:
            return self.inner.run(request, budget_s)
        finally:
            self.walls.append(time.perf_counter() - t0)


class ServiceMix(Workload):
    """Closed loop, one client: blocks of BLOCK distinct + BLOCK repeats."""

    name = SERVICE
    IMPORTS = ("repro.topo", "repro.core", "repro.fault",
               "repro.service.service", "repro.service.backend",
               "repro.service.clock", "repro.service.request")
    BLOCK = 4
    MIN_ROUNDS = 1
    DEADLINE_S = 600.0

    def build(self) -> None:
        from repro.core import RTiModel, SimulationConfig
        from repro.fault import GaussianSource
        from repro.service.backend import LocalBackend
        from repro.service.clock import VirtualClock
        from repro.service.service import ForecastService
        from repro.topo import build_mini_kochi

        self.steps = 6 if self.quick else 60
        self.probe_steps = 20 if self.quick else 300
        t = time.perf_counter()
        self.mk = build_mini_kochi()
        t = self._timed("build_grid", t)
        self.backend = TimedBackend(LocalBackend())
        self.service = ForecastService(self.backend, clock=VirtualClock())
        #: What one request sets up before stepping (the probes' state).
        self.probe_scenario = self.scenario()
        spec = self.probe_scenario["source"]
        self.source = GaussianSource(
            **{k: v for k, v in spec.items() if k != "type"}
        )
        self.config = SimulationConfig(dt=self.mk.dt)
        self.model = RTiModel(self.mk.grid, self.mk.bathymetry, self.config)
        self.model.set_initial_condition(self.source)
        self._timed("model_init", t)
        self.cells_steps = self.mk.grid.n_cells * self.steps
        self._payload_sha: dict[str, str] = {}  # cache key -> first payload
        self._measured: list[dict] = []  # settled scenarios a repeat may ask
        self.repeats_sent = 0
        self._side_rng = random.Random(self.rng.random())

    def scenario(self, rng: random.Random | None = None) -> dict:
        x0, y0, amp = _perturb(rng or self.rng, 4_000.0, 16_000.0, 2.0)
        return {
            "grid": "mini-kochi", "dt": self.mk.dt, "n_steps": self.steps,
            "source": {"type": "gaussian", "x0": x0, "y0": y0,
                       "amplitude": amp, "sigma": 2_500.0},
        }

    def request(self, scenario: dict, expect: str, tamper=None) -> Sample:
        """Submit one request and drain the service; timed on the host."""
        from repro.obs.trace import span
        from repro.service.request import ForecastRequest

        req = ForecastRequest(scenario=dict(scenario),
                              deadline_s=self.DEADLINE_S)
        kind = "miss"
        if expect == "cached":
            kind = "hit"
            self.repeats_sent += 1
        t0 = time.perf_counter()
        try:
            with span("ledger.op", cat="ledger", workload=self.name,
                      kind=kind):
                ticket = self.service.submit(req)
                self.service.run_until_idle()
        except Exception as exc:  # noqa: BLE001 - a refusal is a failed op
            return Sample(kind, time.perf_counter() - t0,
                          f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        if tamper is not None and ticket.result is not None:
            tamper(ticket.result)
        return Sample(
            kind, wall, self._verdict(ticket, req.cache_key(), expect),
            backend_s=self.backend.walls[-1] if kind == "miss" else None,
        )

    def pair(self, scenario: dict, repeat_of: dict, tamper=None) -> list:
        """A miss, then a hit, gauged together: a gauge loop between the
        two would warm the caches the hit is meant to find cold."""
        before = self.speed_before()
        out = [self.request(scenario, "done", tamper),
               self.request(repeat_of, "cached", tamper)]
        speed = self.speed_around(before)
        for sample in out:
            sample.speed = speed
        return out

    def eta_of(self, result) -> dict:
        return result.payload["eta"]

    def _verdict(self, ticket, key: str, expect: str) -> str | None:
        import numpy as np

        if ticket.status != expect:
            return f"ticket ended {ticket.status!r}, expected {expect!r}"
        if not ticket.deadline_met:
            return "deadline missed"
        result = ticket.result
        if not result.fidelity.is_full or result.physics_verdict != "healthy":
            return (f"fidelity {result.fidelity.tag}, "
                    f"physics {result.physics_verdict!r}")
        eta = self.eta_of(result)
        if not all(np.isfinite(a).all() for a in eta.values()):
            return "non-finite water level"
        sha = _eta_sha(eta)
        if self._payload_sha.setdefault(key, sha) != sha:
            return "cached payload differs from the first computed one"
        return None

    def short_op(self) -> None:
        """One fresh miss and its exact repeat, on at most 10 steps (enough
        to reach the physics sampler's cadence of 5).

        The scenario comes from a generator of its own, so the measured
        request stream depends on the seed alone, not on how many of
        these ran before it.
        """
        sc = self.scenario(self._side_rng)
        sc["n_steps"] = min(self.steps, 10)
        self.pair(sc, sc)

    def run_once(self, tamper=None) -> list[Sample]:
        """One block: BLOCK new scenarios, each followed by an exact repeat
        of a settled one picked by the seed.

        Strict alternation keeps every hit in one condition — right after
        a miss has flushed the CPU caches — so hit latency is unimodal.
        """
        from repro.service.request import scenario_key

        out = []
        for _ in range(self.BLOCK):
            new = self.scenario()
            # The repeat may be of this very scenario: by then it is settled.
            self._measured.append(new)
            out += self.pair(new, self.rng.choice(self._measured), tamper)
        if not self.result_digest:
            # The first measured block always runs, however short the
            # budget, so its payloads make a run-length-independent digest.
            self.result_digest = hashlib.sha256("".join(
                self._payload_sha[scenario_key(sc)] for sc in self._measured
            ).encode()).hexdigest()
        return out

    def final_check(self) -> str | None:
        hits = self.service.stats()["cache"]["hits"]
        if hits != self.repeats_sent:
            return f"cache counted {hits} hits, sent {self.repeats_sent}"
        return None


WORKLOAD_CLASSES = {
    w.name: w for w in (NestedForecast, BasinLarge, Mosaic2Rank, ServiceMix)
}
