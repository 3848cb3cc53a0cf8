"""The speed product computed as ``sqrt(mc*mc + nc*nc) / D``, on a forecast.

``OutputAccumulator.update`` (both executors) forms the cell-centred speed
from the two face means by correctly rounded ``*``, ``+``, ``sqrt`` and
``/`` in the state's precision.  The definition it replaced was
``hypot(mc, nc) / max(D, film)``.  Over a 300-step mini-Kochi forecast with a
source on the coast, in float64 and in float32, on the executor this
platform chose and on the NumPy bodies:

* ``vmax`` is within 2 ulp (of the state's precision) of the ``np.hypot``
  definition, folded the same way from the same states.  Where the squares
  can be subnormal (a speed below ``sqrt(tiny) / film``) the squares lose
  bits, and the difference is bounded absolutely instead;
* ``zmax``, ``inundation_max``, ``arrival_time`` and the water level are
  bitwise what the ``hypot`` code produced: the digests below were taken
  with it.
"""

import contextlib
import hashlib

import numpy as np
import pytest

from repro.constants import DRY_THRESHOLD, MAX_VELOCITY
from repro.core import RTiModel, SimulationConfig, loopnest, outputs
from repro.fault import GaussianSource
from repro.grid.staggered import NGHOST
from repro.topo import build_mini_kochi

from tests import executors

STEPS = 300
#: On the coast, so that land floods within the forecast.
SOURCE = GaussianSource(x0=4_000.0, y0=9_600.0, amplitude=2.0, sigma=900.0)
FILM = outputs.OutputAccumulator.SPEED_MIN_DEPTH

#: sha256 of every block's product (and, for "eta", water level), taken
#: with the ``hypot`` speed.
FROZEN = {
    "float64": {
        "zmax": "28e754120d7c6902d08be72e25e8896c356d2a5c8cf3b27f000f520f49d152d7",
        "inundation_max": "e86a566ae6e162edfc7377baa33a6701cd57aad61ad611ae141801189dd8270a",
        "arrival_time": "dcc64a04ec8c45c2b251b5bc9ef79bc65ba6d2c6e5667dcd94f3dcd7c32f6eca",
        "eta": "8036a8ea80c9e028fd26227315d5f8d8f63a9960749d18cc1423d03f3f90e852",
    },
    "float32": {
        "zmax": "a4a8512db030493ed4e3be2875eb08671915848fe81c414cf4f3e8a687e55ef4",
        "inundation_max": "ec3bd33e277cef27731f276efbadfd87114dcc28fea6f4408708145bdb3f57f5",
        "arrival_time": "595b413a5131602cf7264985f01b0795335760e38f6a29eb64927b322d02a0ec",
        "eta": "fba19891b80cbd46a28ad2accd83a2c16014c1b85c465bb59caa73fb84ceb711",
    },
}


def digest(arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def hypot_speed(acc, z, m, n, hz, dry):
    """One step's speed as the ``hypot`` definition has it."""
    g, ny, nx = NGHOST, acc.block.ny, acc.block.nx
    d = np.maximum(z[g : g + ny, g : g + nx] + hz[g : g + ny, g : g + nx], 0.0)
    mc = 0.5 * (m[g : g + ny, g : g + nx] + m[g : g + ny, g + 1 : g + nx + 1])
    nc = 0.5 * (n[g : g + ny, g : g + nx] + n[g + 1 : g + ny + 1, g : g + nx])
    speed = np.hypot(mc, nc) / np.maximum(d, FILM)
    return np.where(d > max(dry, FILM), np.minimum(speed, MAX_VELOCITY), 0.0)


def forecast(dtype, monkeypatch):
    """The forecast's model, and the ``hypot`` vmax of each of its blocks."""
    mk = build_mini_kochi()
    model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt, dtype=dtype))
    model.set_initial_condition(SOURCE)
    want = {bid: np.zeros_like(acc.vmax) for bid, acc in model.outputs.items()}
    update = outputs.OutputAccumulator.update

    def spied(acc, z, m, n, hz, time, dry_threshold=DRY_THRESHOLD, nghost=NGHOST):
        update(acc, z, m, n, hz, time, dry_threshold, nghost)
        vmax = want[acc.block.block_id]
        np.maximum(vmax, hypot_speed(acc, z, m, n, hz, dry_threshold), out=vmax)

    loopnest.choice()  # the self-check runs its own accumulators, unspied
    monkeypatch.setattr(outputs.OutputAccumulator, "update", spied)
    with np.errstate(all="ignore"):  # the hypot definition's dry divisions
        model.run(STEPS)
    return model, want


def digests(model):
    accs = [model.outputs[bid] for bid in sorted(model.outputs)]
    found = {
        key: digest(getattr(acc, key) for acc in accs)
        for key in ("zmax", "inundation_max", "arrival_time")
    }
    found["eta"] = digest(model.states[bid].eta_interior() for bid in sorted(model.states))
    return found


@pytest.mark.parametrize("executor", ["platform", "numpy"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_the_speed_is_hypot_within_two_ulp_and_the_rest_is_bitwise(dtype, executor, monkeypatch):
    with executors.on_numpy() if executor == "numpy" else contextlib.nullcontext():
        model, want = forecast(dtype, monkeypatch)
    accs = model.outputs
    assert sum(int((acc.inundation_max > 0).sum()) for acc in accs.values()) > 100
    assert sum(int(np.isfinite(acc.arrival_time).sum()) for acc in accs.values()) > 1000
    info = np.finfo(dtype)
    subnormal = np.sqrt(info.tiny) / FILM  # below it the squares may be subnormal
    slack = np.sqrt(4 * info.smallest_subnormal) / FILM
    moving = 0
    for bid, acc in accs.items():
        ref = want[bid]
        ulp = np.spacing(ref.astype(dtype)).astype(float)
        bound = 2 * ulp + np.where(ref < subnormal, slack, 0.0)
        assert (np.abs(acc.vmax - ref) <= bound).all(), bid
        moving += int((ref > subnormal).sum())
    assert moving > 1000
    assert digests(model) == FROZEN[np.dtype(dtype).name]
