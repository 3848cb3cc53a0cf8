"""Real NumPy kernel throughput (Section V-B's 50-500 us kernel regime).

Unlike the figure benches (which replay the full-scale schedule through
the hardware model), these time the *actual* Python solver kernels with
pytest-benchmark — the numbers a user of this library experiences.
Sizes run from cache-resident (128^2) to well out of L2 (768^2, the
regime DESIGN.md "Kernel execution" is about); each records
``cells_per_s`` in ``extra_info``.
"""

import numpy as np
import pytest

from repro.core.mass import nlmass
from repro.core.momentum import nlmnt2
from repro.grid.staggered import eta_shape, flux_m_shape, flux_n_shape


def _fields(ny, nx, depth=100.0, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.normal(0, 0.1, eta_shape(ny, nx))
    m = rng.normal(0, 0.5, flux_m_shape(ny, nx))
    n = rng.normal(0, 0.5, flux_n_shape(ny, nx))
    h = np.full(eta_shape(ny, nx), depth)
    return z, m, n, h


SIZES = [128, 512, 768]


def _record_rate(benchmark, size):
    benchmark.extra_info["cells_per_s"] = size * size / benchmark.stats["mean"]


@pytest.mark.parametrize("size", SIZES)
def test_nlmass_throughput(benchmark, size):
    z, m, n, h = _fields(size, size)
    out = np.empty_like(z)
    benchmark(nlmass, z, m, n, h, 0.1, 10.0, out=out)
    _record_rate(benchmark, size)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("size", SIZES)
def test_nlmnt2_throughput(benchmark, size):
    z, m, n, h = _fields(size, size)
    out_m = np.empty_like(m)
    out_n = np.empty_like(n)
    benchmark(
        nlmnt2, z, m, n, h, 0.1, 10.0, 0.025, out_m=out_m, out_n=out_n
    )
    _record_rate(benchmark, size)
    assert np.isfinite(out_m).all() and np.isfinite(out_n).all()


def test_full_step_mini_kochi(benchmark):
    """One coupled step of the five-level mini-Kochi model."""
    from repro.core import RTiModel, SimulationConfig
    from repro.fault import GaussianSource
    from repro.topo import build_mini_kochi

    mk = build_mini_kochi()
    model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
    model.set_initial_condition(
        GaussianSource(x0=14_000.0, y0=16_000.0, amplitude=2.0, sigma=3_000.0)
    )
    benchmark(model.step)
    assert model.step_count > 0
