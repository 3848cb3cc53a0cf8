"""``HealthMonitor.check`` against its frozen seed body.

The shipped check takes one ``D`` per block and never gathers wet-cell
copies; the body below is the check as it stood before (boolean fancy
indexing per block).  Both must reach the same verdict with the same
message on healthy, blown-up, CFL-violating and all-dry states — the
shipped check on each executor the process has: its NumPy body, and the
compiled nest's records (``loopnest.scan``) where a compiler built one.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import GRAVITY
from repro.core import RTiModel, SimulationConfig, loopnest
from repro.errors import NumericalError
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.resilience import health
from repro.resilience.health import HealthMonitor

from tests import executors


def frozen_check(self, model) -> None:
    """The per-block body of the seed ``check`` — never optimise."""
    dt = model.config.dt
    for bid, st in model.states.items():
        for name, arr in (
            ("z", st.z_old),
            ("m", st.m_old),
            ("n", st.n_old),
        ):
            if not np.isfinite(arr).all():
                raise NumericalError(
                    f"step {model.step_count}: non-finite values in "
                    f"field {name} of block {bid}"
                )
        depth = st.total_depth()
        wet = depth > model.config.dry_threshold
        if wet.any():
            eta_max = float(np.abs(st.eta_interior()[wet]).max())
            if eta_max > health.ETA_LIMIT:
                raise NumericalError(
                    f"step {model.step_count}: water level blow-up in "
                    f"block {bid}: |eta| = {eta_max:.1f} m > "
                    f"{health.ETA_LIMIT:.1f} m"
                )
            d_max = float(depth[wet].max())
            courant = math.sqrt(2.0 * GRAVITY * d_max) * dt / st.dx
            if courant > health.CFL_LIMIT:
                raise NumericalError(
                    f"step {model.step_count}: CFL margin violated in "
                    f"block {bid}: Courant number {courant:.3f} > "
                    f"{health.CFL_LIMIT:.3f} (D_max = {d_max:.1f} m)"
                )


class _Hills:
    """Random land and sea: hills taller than any eta limit drawn below, and
    water deep enough to break the smaller CFL limits."""

    def __init__(self, seed: int, all_land: bool) -> None:
        self.rng = np.random.default_rng(seed)
        self.all_land = all_land

    def sample_cells(self, x0, y0, nx, ny, dx):
        if self.all_land:
            return self.rng.uniform(-300.0, -1.0, (ny, nx))
        return self.rng.uniform(-300.0, 3000.0, (ny, nx))


def verdict(check, monitor, model):
    try:
        check(monitor, model)
    except NumericalError as exc:
        return str(exc)
    return None


def shipped(monitor, model) -> set:
    """The shipped check's verdicts: on NumPy, and on the nest if there is one."""
    with executors.on_numpy():
        said = {verdict(HealthMonitor.check, monitor, model)}
    if loopnest.choice().executor == "nest":
        said.add(verdict(HealthMonitor.check, monitor, model))
    return said


@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float64, np.float32]),
    all_land=st.booleans(),
    surge=st.sampled_from([0.0, 1.0, 30.0, 500.0]),
    eta_limit=st.sampled_from([0.5, 20.0, 100.0]),
    cfl_limit=st.sampled_from([0.05, 0.5, 1.0]),
    poison=st.sampled_from([None, None, None, "z", "m", "n"]),
)
@settings(max_examples=80, deadline=None)
def test_check_matches_frozen_body(
    seed, dtype, all_land, surge, eta_limit, cfl_limit, poison
):
    grid = NestedGrid([GridLevel(index=1, dx=100.0, blocks=[
        Block(0, 1, 0, 0, 7, 5), Block(1, 1, 7, 0, 4, 5)])])
    model = RTiModel(
        grid, _Hills(seed, all_land), SimulationConfig(dt=0.05, dtype=dtype)
    )
    rng = np.random.default_rng(seed)
    for state in model.states.values():
        state.set_initial_eta(rng.normal(0.0, surge, (5, state.block.nx)))
    if poison is not None:
        state = model.states[int(rng.integers(0, 2))]
        arr = getattr(state, f"{poison}_old")
        arr[tuple(rng.integers(0, n) for n in arr.shape)] = rng.choice(
            [np.nan, np.inf, -np.inf])
    monitor = HealthMonitor()
    with mock.patch.multiple(health, ETA_LIMIT=eta_limit, CFL_LIMIT=cfl_limit):
        want = verdict(frozen_check, monitor, model)
        assert shipped(monitor, model) == {want}


@pytest.mark.parametrize("expected", ["blow-up", "CFL margin", None])
def test_every_verdict_is_reachable(expected, monkeypatch):
    """The differential test above would pass vacuously on healthy states."""
    grid = NestedGrid(
        [GridLevel(index=1, dx=100.0, blocks=[Block(0, 1, 0, 0, 6, 6)])])
    model = RTiModel(grid, _Hills(1, False), SimulationConfig(dt=0.05))
    eta = {"blow-up": 500.0, "CFL margin": 30.0, None: 0.1}[expected]
    model.states[0].set_initial_eta(np.full((6, 6), eta))
    if expected == "CFL margin":
        monkeypatch.setattr(health, "CFL_LIMIT", 0.01)
    monitor = HealthMonitor()
    (got,) = shipped(monitor, model)
    assert got == verdict(frozen_check, monitor, model)
    assert (got is None) if expected is None else (expected in got)
