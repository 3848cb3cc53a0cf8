"""The kernels' scratch arena: allocation-free steps, one arena per thread."""

import sys
import threading
import tracemalloc

import numpy as np

from repro.core import scratch
from repro.fault import GaussianSource
from repro.validation.analytic import SlopedBathymetry, single_block_model
from tests.oracles import arena_nbytes


def beach_model(nx, ny, dx=50.0):
    model = single_block_model(
        nx, ny, dx, SlopedBathymetry(200.0, 200.0 / (0.9 * ny * dx)),
        boundary="wall",
    )
    model.set_initial_condition(
        GaussianSource(x0=nx * dx / 2, y0=ny * dx / 3, amplitude=2.0,
                       sigma=max(nx, ny) * dx / 12)
    )
    return model


def final_arrays(model):
    (st,) = model.states.values()
    (acc,) = model.outputs.values()
    return {**st.state_arrays(), **acc.product_arrays()}


def test_a_step_allocates_less_than_three_fields():
    """Deterministic stand-in for a speed guard: no wall clock involved.

    The kernels used to materialise more than 30 block-sized temporaries
    per step; out of the arena a step's transient footprint is a few
    strips' worth of glue.
    """
    model = beach_model(256, 256)
    (st,) = model.states.values()
    model.step()
    model.step()
    tracemalloc.start()
    try:
        model.step()  # tracemalloc's own bookkeeping warms here
        arena_at_3 = arena_nbytes()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        model.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 3 * st.z_old.nbytes
    model.run(26)
    assert model.step_count == 30
    assert 0 < arena_nbytes() == arena_at_3


def test_arena_is_sized_by_the_strip_not_the_block():
    # Isolated in a thread so earlier tests' growth does not count.
    sizes = {}

    def run(n):
        beach_model(n, n).run(2)
        sizes[n] = arena_nbytes()

    for n in (512, 768):
        t = threading.Thread(target=run, args=(n,))
        t.start()
        t.join(timeout=120)
        assert not t.is_alive()
    field = (768 + 4) ** 2 * 8
    assert sizes[768] < field  # ~100 B per strip element, not per cell
    assert sizes[768] < 1.6 * sizes[512]  # grows with the width only


def test_fresh_thread_gets_its_own_arena():
    spec = (np.dtype(np.float64), (2, 1, (8, 8)))
    (mine, _), _ = scratch.carve(*spec)
    seen = {}

    def worker():
        seen["nbytes_at_start"] = arena_nbytes()
        (theirs, _), _ = scratch.carve(*spec)
        seen["shared"] = np.shares_memory(mine, theirs)
        seen["nbytes"] = arena_nbytes()

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive()
    assert seen == {"nbytes_at_start": 0, "shared": False, "nbytes": seen["nbytes"]}
    assert seen["nbytes"] > 0
    # Same thread, same request: the same memory again (it is an arena).
    (again, _), _ = scratch.carve(*spec)
    assert np.shares_memory(mine, again)


def test_two_threads_stepping_different_blocks_match_serial():
    """Two threads of one process stepping at once, each on its own arena."""
    shapes = [(96, 41), (33, 150)]
    serial = []
    for nx, ny in shapes:
        model = beach_model(nx, ny)
        model.run(20)
        serial.append(final_arrays(model))

    models = [beach_model(nx, ny) for nx, ny in shapes]
    barrier = threading.Barrier(len(models))
    errors = []

    def advance(model):
        try:
            barrier.wait(timeout=30)
            for _ in range(20):
                model.step()
        except Exception as exc:  # surfaced below: a thread cannot fail a test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads inside the kernels
    try:
        threads = [threading.Thread(target=advance, args=(m,)) for m in models]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    for model, want in zip(models, serial):
        got = final_arrays(model)
        assert model.step_count == 20
        for key, a in want.items():
            assert np.array_equal(got[key], a), key
