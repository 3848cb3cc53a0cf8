"""The health guard on the compiled nest (``loopnest.scan``, DESIGN.md
section 9j) against its NumPy bodies.

``HealthMonitor.check`` and ``PhysicsSampler.sample`` read one launch's
per-block records on the nest and run their NumPy bodies everywhere else.
On drawn states of a two-level grid, stepped a drawn number of times, with
NaN, +-inf or a large value put into z, M or N of a drawn block — a physical
cell, a ghost cell, or M's extra face column / N's extra face row — both
executors must raise the same exception with the same message (or none) and
take the same sample, field for field, in both precisions.  The suite is
itself checked: mutants of the C that skip the ghost ring, take max |eta|
over every cell instead of the wet ones, or test the low word of a double
for its exponent must fail it, and fail the self-check.  And a warm check on
the nest is one foreign call and no NumPy, counted.
"""

import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RTiModel, SimulationConfig, loopnest
from repro.errors import NumericalError
from repro.fault import GaussianSource
from repro.grid.staggered import NGHOST
from repro.obs.physics import PhysicsSampler
from repro.resilience import health
from repro.resilience.forecast import run_resilient_forecast
from repro.resilience.health import HealthMonitor
from repro.topo import build_mini_kochi

from tests import executors
from tests.test_exchange_nest import battery_grid, mutated
from tests.test_health_bitwise import _Hills

G = NGHOST
dtypes = st.sampled_from([np.float64, np.float32])
SOURCE = GaussianSource(x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0)


def launches() -> int:
    return loopnest.provenance()["routines"]["scan"]["launches"]


def hills_model(seed: int, dtype, steps: int) -> RTiModel:
    """Two level-1 blocks across a seam and two children (``battery_grid``)
    over random land and sea, a random sea surface, *steps* steps on."""
    model = RTiModel(battery_grid(), _Hills(seed, False), SimulationConfig(dt=0.5, dtype=dtype))
    rng = np.random.default_rng(seed)
    for state in model.states.values():
        state.set_initial_eta(rng.normal(0.0, 2.0, (state.block.ny, state.block.nx)))
    with np.errstate(all="ignore"):  # random hills make wild first steps
        for _ in range(steps):
            model.step()
    return model


def place(arr: np.ndarray, where: str, rng) -> tuple:
    """An index into a padded array: a physical ``cell``, a ``ghost`` cell,
    or one of the extra ``face-col`` of M / ``face-row`` of N."""
    R, C = arr.shape
    if where == "cell":
        return int(rng.integers(G, R - G)), int(rng.integers(G, C - G))
    if where == "ghost":
        r = int(rng.integers(0, R))
        if r < G or r >= R - G:
            return r, int(rng.integers(0, C))
        return r, int(rng.choice([*range(G), *range(C - G, C)]))
    if where == "face-col":
        return int(rng.integers(0, R)), C - 1
    return R - 1, int(rng.integers(0, C))


def outcome(model, eta_limit: float, cfl_limit: float) -> tuple:
    """What the executor of the moment says of *model*: the check's
    exception (type and message, or None) and a fresh sampler's sample."""
    monitor = HealthMonitor()
    try:
        with mock.patch.multiple(health, ETA_LIMIT=eta_limit, CFL_LIMIT=cfl_limit):
            monitor.check(model)
        verdict = None
    except NumericalError as exc:
        verdict = (type(exc), str(exc))
    sample = PhysicsSampler().sample(model).to_dict()
    return verdict, repr(sorted(sample.items()))


def agree(model, eta_limit, cfl_limit, nests) -> bool:
    """The nest (*nests*) and the NumPy bodies on *model*; raises if the
    nest's check or sample went to NumPy."""
    with executors.on_numpy():
        want = outcome(model, eta_limit, cfl_limit)
    with executors.on_nests(nests):
        before = launches()
        got = outcome(model, eta_limit, cfl_limit)
        assert launches() - before == 2, "not on the nest"
    return got == want


VALUES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "blow-up": 500.0, "deep": 3000.0}


@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=dtypes,
    steps=st.integers(0, 3),
    field=st.sampled_from(["z", "m", "n"]),
    where=st.sampled_from(["cell", "ghost", "face"]),
    value=st.sampled_from([None, *VALUES]),
    eta_limit=st.sampled_from([0.5, 20.0, 100.0]),
    cfl_limit=st.sampled_from([0.05, 0.5, 1.0]),
)
@settings(max_examples=80, deadline=None)
def test_check_and_sample_are_the_numpy_bodies(
    seed, dtype, steps, field, where, value, eta_limit, cfl_limit
):
    nests = executors.compiled_nests()
    model = hills_model(seed, dtype, steps)
    rng = np.random.default_rng(seed + 1)
    if value is not None:
        state = model.states[int(rng.integers(0, len(model.states)))]
        arr = getattr(state, f"{field}_old")
        side = {"m": "face-col", "n": "face-row"}.get(field, "ghost")
        arr[place(arr, side if where == "face" else where, rng)] = VALUES[value]
    assert agree(model, eta_limit, cfl_limit, nests)


# ---------------------------------------------------------------------------
# The suite checked: mutants of the C must fail it
# ---------------------------------------------------------------------------

#: Per case: the field, the cell, the value, and the limits checked against.
CASES = [
    (None, None, None, 100.0, 1.0),
    (None, None, None, 0.5, 1.0),  # a blow-up
    (None, None, None, 100.0, 0.05),  # a CFL breach
    ("z", (0, 5), np.nan, 100.0, 1.0),  # a ghost row
    ("z", (5, 1), np.inf, 100.0, 1.0),  # a ghost column
    ("z", (4, 4), -np.inf, 100.0, 1.0),
    ("z", (4, 4), 500.0, 100.0, 1.0),
    ("z", (4, 4), 3000.0, 1e4, 0.5),
    ("m", (3, -1), np.nan, 100.0, 1.0),  # M's extra face column
    ("m", (0, 3), np.inf, 100.0, 1.0),
    ("n", (-1, 3), -np.inf, 100.0, 1.0),  # N's extra face row
    ("n", (4, 4), np.nan, 100.0, 1.0),
    ("m", (3, -1), 1e6, 100.0, 1.0),
]


def battery_passes(nests) -> bool:
    """Every case in every block of one stepped model, per precision."""
    for dtype in (np.float64, np.float32):
        model = hills_model(3, dtype, 2)
        for state in model.states.values():
            for field, at, value, eta_limit, cfl_limit in CASES:
                arr = getattr(state, f"{field}_old") if field else None
                if arr is not None:
                    was, arr[at] = arr[at], value
                try:
                    if not agree(model, eta_limit, cfl_limit, nests):
                        return False
                finally:
                    if arr is not None:
                        arr[at] = was
    return True


C_MUTANTS = {
    "the ghost ring skipped": (
        "rec[0] = FN(finite)(z, R * P);", "rec[0] = FN(finite)(z + g * P + g, ny * P - 2 * g);"
    ),
    "max |eta| over every cell": (
        "        const REAL d = sum > 0 || sum != sum ? sum : 0;                        \\\n",
        "        const REAL d = sum > 0 || sum != sum ? sum : 0;                        \\\n"
        "        eta = FABS(zi) > eta ? FABS(zi) : eta;                                 \\\n",
    ),
    "the finite test reading the low word": (
        "const word *w = (const word *)a + HIGH;", "const word *w = (const word *)a;"
    ),
}


def mutant_nests(tmp_path, monkeypatch, mutant) -> dict:
    source = tmp_path / "loopnest.c"
    source.write_text(mutated(loopnest.SOURCE.read_text(), *C_MUTANTS[mutant]))
    monkeypatch.setattr(loopnest, "SOURCE", source)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return loopnest._build()  # built and loaded, not self-checked


def test_the_battery_passes_unmutated():
    assert battery_passes(executors.compiled_nests())


@pytest.mark.parametrize("mutant", sorted(C_MUTANTS))
def test_a_mutant_of_the_c_scan_fails_the_battery_and_the_self_check(tmp_path, monkeypatch, mutant):
    executors.compiled_nests()
    nests = mutant_nests(tmp_path, monkeypatch, mutant)
    assert not battery_passes(nests)
    said = {}
    for executor, pinned in (("numpy", executors.on_numpy()), ("nest", executors.on_nests(nests))):
        with pinned:
            said[executor] = [loopnest._tiny_scan(dtype) for dtype in (np.float64, np.float32)]
    assert said["nest"] != said["numpy"]


# ---------------------------------------------------------------------------
# The count budget (patched, not timed)
# ---------------------------------------------------------------------------


def test_a_warm_check_on_the_nest_is_one_foreign_call_and_no_numpy(monkeypatch):
    """The third check of a stepped mini-Kochi (both leap-frog parities are
    prepared by then) launches ``scan`` once and touches NumPy nowhere — no
    function of the ``np`` health.py sees, no index into a state array, no
    array derived from one."""
    nests = executors.compiled_nests()
    counting, foreign, touches = [False], [], [0]

    def touched():
        if counting[0]:
            touches[0] += 1

    class Watched(np.ndarray):
        def __array_finalize__(self, obj):
            touched()

        def __getitem__(self, index):
            touched()
            return super().__getitem__(index)

    class NumPy:
        def __getattr__(self, name):
            touched()
            return getattr(np, name)

    def launching(name, fn):
        def launch(*args):
            if counting[0]:
                foreign.append(name)
            return fn(*args)

        return launch

    monkeypatch.setattr(health, "np", NumPy())
    mk = build_mini_kochi()
    model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
    model.set_initial_condition(SOURCE)
    for state in model.states.values():
        state._z, state._m, state._n = (
            [a.view(Watched) for a in pair] for pair in (state._z, state._m, state._n)
        )
        state.hz = state.hz.view(Watched)
    monitor = HealthMonitor()
    with executors.on_nests(executors.wrapped(nests, launching)):
        for _ in range(2):
            model.step()
            monitor.check(model)
        model.step()
        counting[0] = True
        monitor.check(model)
        counting[0] = False
    assert foreign == ["scan"] and touches[0] == 0


def test_a_forecast_prepares_two_scans_and_launches_one_per_guard_call(monkeypatch):
    """20 mini-Kochi forecast steps with the default guards: the model's two
    leap-frog parities are the two tables, every health check is one launch,
    and the physics samples read the health check's rows — numbers derived
    from the run."""
    executors.compiled_nests()
    calls, lock = Counter(), threading.Lock()

    def counted(name, fn):
        def call(*args, **kwargs):
            with lock:
                calls[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(HealthMonitor, "check", counted("check", HealthMonitor.check))
    monkeypatch.setattr(PhysicsSampler, "sample", counted("sample", PhysicsSampler.sample))
    before = loopnest.provenance()["routines"]["scan"]
    mk = build_mini_kochi()
    report = run_resilient_forecast(
        mk.grid, mk.bathymetry, config=SimulationConfig(dt=mk.dt), source=SOURCE,
        horizon_s=20 * mk.dt,
    )
    after = loopnest.provenance()["routines"]["scan"]
    assert report.model.step_count == 20 and calls["check"] >= 20 and calls["sample"] > 0
    assert after["prepared"] - before["prepared"] == 2
    assert after["launches"] - before["launches"] == calls["check"]
