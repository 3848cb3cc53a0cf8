"""Prepared kernel calls (``repro.core.loopnest.prepared``, DESIGN.md §9h):
lifetime and identity.

A call on the compiled nest is validated and laid out once per set of array
objects and then only launched.  What that must never change: a restore, a
rollback or a rebinding mid-run, a halved ``dt``, loose inputs, two rank
threads at once — every answer stays bitwise the answer without the cache —
and the cache pins nothing: it dies with the arrays.  The exchange phases'
calls (``loopnest.exchange``, DESIGN.md §9i) share the cache and its rules;
each routine is counted apart.  Where the platform's executor is NumPy
(``CC=false``) nothing is prepared and every case still holds.
"""

import gc
import sys
import weakref

import numpy as np
import pytest

from repro.core import RTiModel, SimulationConfig, loopnest, mass, momentum, outputs
from repro.core.pipeline import build_step_plan
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.staggered import NGHOST
from repro.par.decomposition import equal_cell_assignment
from repro.par.driver import run_distributed
from repro.resilience.checkpoint import CheckpointRing
from repro.topo import build_mini_kochi

from tests import executors
from tests.test_kernels_bitwise import DT, DX, MANNING, random_state

G = NGHOST
SOURCE = GaussianSource(x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0)
ON_NEST = loopnest.choice().executor == "nest"


def mini_kochi_model():
    mk = build_mini_kochi()
    model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
    model.set_initial_condition(SOURCE)
    return model


def everything(model) -> bytes:
    """Both leap-frog copies of every buffer and every product, as bytes."""
    return b"".join(
        a.tobytes()
        for bid, st in sorted(model.states.items())
        for a in (*st.state_arrays().values(), *model.outputs[bid].product_arrays().values())
    )


KERNELS = ("nlmass", "nlmnt2", "output")
EXCHANGE = ("moves", "restrict")


def counted(routines=KERNELS) -> tuple[int, int]:
    said = loopnest.provenance()["routines"]
    return tuple(sum(said[r][k] for r in routines) for k in ("prepared", "launches"))


def since(before: tuple[int, int], routines=KERNELS) -> tuple[int, int]:
    prepared, launches = counted(routines)
    return prepared - before[0], launches - before[1]


def exchange_calls_per_step(model) -> dict:
    """What one step asks of the exchange routines, from its step plan: per
    block a ghost fill of each field and per seam a copy of each, per JNQ
    link its faces — all ``moves`` — and per JNZ link one ``restrict``."""
    plan = build_step_plan(model.grid, model.config)
    links = sum(len(of_level) for _level, of_level in plan.links)
    return {"moves": 3 * len(model.states) + 3 * len(plan.seams) + links, "restrict": links}


def test_a_run_prepares_each_call_once_and_then_launches_it():
    """Ten blocks, three kernels, two leap-frog parities: 60 kernel calls,
    whatever the number of steps; and of each exchange routine what the step
    plan enumerates, once per parity."""
    model = mini_kochi_model()
    before = {r: counted((r,)) for r in KERNELS + EXCHANGE}
    model.run(20)
    got = {r: since(was, (r,)) for r, was in before.items()}
    per_step = exchange_calls_per_step(model)
    assert got == {
        **{r: (20, 200) if ON_NEST else (0, 0) for r in KERNELS},
        **{r: (2 * n, 20 * n) if ON_NEST else (0, 0) for r, n in per_step.items()},
    }
    assert len(loopnest._CALLS) >= sum(prepared for prepared, _ in got.values())


def test_restores_and_a_rollback_mid_run_re_prepare_nothing_and_change_nothing():
    """``load_state_arrays``, ``load_product_arrays`` and a ``CheckpointRing``
    rollback write in place: the arrays are the ones prepared, so every later
    step launches the same calls — and is bitwise a fresh model's."""
    fresh = mini_kochi_model()
    fresh.run(30)

    model, before = mini_kochi_model(), counted()
    model.run(10)
    ring = CheckpointRing()
    ring.snapshot(model)
    clock = model.time, model.step_count
    saved = [
        ({k: a.copy() for k, a in st.state_arrays().items()}, st.flip,
         {k: a.copy() for k, a in model.outputs[bid].product_arrays().items()})
        for bid, st in sorted(model.states.items())
    ]
    model.run(7)
    ring.restore(model)  # back at step 10
    model.run(5)
    for (bid, st), (state, flip, products) in zip(sorted(model.states.items()), saved):
        st.load_state_arrays(state, flip)
        model.outputs[bid].load_product_arrays(products)
    model.time, model.step_count = clock
    model.run(20)
    assert everything(model) == everything(fresh)
    assert since(before) == ((60, 30 * 42) if ON_NEST else (0, 0))


def test_a_rebound_product_gets_the_next_update_and_the_old_array_is_never_written():
    model = mini_kochi_model()
    model.run(6)
    twin = mini_kochi_model()
    twin.run(12)
    old = {bid: acc.zmax for bid, acc in model.outputs.items()}
    kept = {bid: a.copy() for bid, a in old.items()}
    for acc in model.outputs.values():
        acc.zmax = acc.zmax.copy()
    before = counted()
    model.run(6)
    assert everything(model) == everything(twin)
    assert any((acc.zmax != kept[bid]).any() for bid, acc in model.outputs.items())
    assert all(old[bid].tobytes() == kept[bid].tobytes() for bid in old)
    if ON_NEST:  # the ten updates of one parity... and of the other
        assert since(before) == (20, 180)


def test_the_cache_dies_with_the_arrays():
    gc.collect()
    held, before = len(loopnest._CALLS), counted(KERNELS + EXCHANGE)
    model = mini_kochi_model()
    model.run(4)
    watched = [
        weakref.ref(a)
        for bid, st in model.states.items()
        for a in (*st.state_arrays().values(), st.hz,
                  *model.outputs[bid].product_arrays().values())
    ]
    per_step = sum(exchange_calls_per_step(model).values())
    assert since(before, KERNELS + EXCHANGE)[0] == (60 + 2 * per_step if ON_NEST else 0)
    assert len(loopnest._CALLS) == held + (60 + 2 * per_step if ON_NEST else 0)
    del model
    gc.collect()
    assert all(ref() is None for ref in watched)
    assert len(loopnest._CALLS) == held


def test_a_prepared_array_cannot_be_resized_under_its_call():
    """What keeps a frozen address good: an array's buffer is its own for
    life, unless ``resize`` moves it — which NumPy refuses an array that is
    weakly referenced, as every prepared array is."""
    executors.compiled_nests()
    z, m, n, hz = random_state(6, 5, seed=1)
    out = np.empty_like(z)
    mass.nlmass(z, m, n, hz, DT, DX, out)
    for a in (z, m, n, hz, out):
        with pytest.raises(ValueError, match="resize"):
            a.resize((40, 40), refcheck=False)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_the_same_arrays_at_a_halved_dt_give_the_halved_dt_answer(dtype):
    z, m, n, hz = random_state(9, 11, seed=3, dtype=dtype)
    new = np.empty_like(z), np.empty_like(m), np.empty_like(n)

    def step(dt):
        mass.nlmass(z, m, n, hz, dt, DX, new[0])
        momentum.nlmnt2(new[0], m, n, hz, dt, DX, MANNING, new[1], new[2])
        return b"".join(a.tobytes() for a in new)

    before = counted()
    full, halved, again = step(DT), step(DT / 2), step(DT)
    assert since(before) == ((2, 6) if ON_NEST else (0, 0))
    with executors.on_numpy():
        assert (full, halved, again) == (step(DT), step(DT / 2), step(DT))
    assert full != halved


def test_loose_inputs_take_the_numpy_body_and_poison_nothing():
    """Transposed, sliced and wrongly typed inputs are declined on every call
    — nothing is remembered about them — and a later contiguous call on the
    same memory is prepared as if they had never been seen."""
    z, m, n, hz = random_state(8, 8, seed=2)
    wide = np.zeros((z.shape[0], 2 * z.shape[1]))
    wide[:, ::2] = hz
    sliced, out = wide[:, ::2], np.empty_like(z)
    acc = outputs.OutputAccumulator(Block(0, 1, 0, 0, 8, 8), hz[G:-G, G:-G], z[G:-G, G:-G])
    acc._z0 = acc._z0.astype(np.float32)  # a reference level the nest was not built for

    def loose():
        mass.nlmass(z, m, n, sliced, DT, DX, out)
        ran = [loopnest.ran()]
        got = [out.copy()]
        out_m, out_n = np.empty_like(m), np.empty_like(n)
        momentum.nlmnt2(z, m, n, sliced, DT, DX, MANNING, out_m, out_n)
        ran.append(loopnest.ran())
        square = np.empty_like(z)  # 8 x 8 cells: its transpose has the frame's shape
        mass.nlmass(z.T, n.T, m.T, hz.T, DT, DX, square.T)
        ran.append(loopnest.ran())
        acc.update(z, m, n, hz, 3.0)
        ran.append(loopnest.ran())
        return ran, b"".join(a.tobytes() for a in (*got, out_m, out_n, square))

    before = counted()
    ran, first = loose()
    assert ran == ["numpy"] * 4 and since(before) == (0, 0)
    with executors.on_numpy():
        assert loose()[1] == first
    mass.nlmass(z, m, n, hz, DT, DX, out)  # the same z, m, n and out, contiguous h
    assert loopnest.ran() == loopnest.choice().executor
    assert since(before) == ((1, 1) if ON_NEST else (0, 0))
    with executors.on_numpy():
        assert mass.nlmass(z, m, n, hz, DT, DX, np.empty_like(z)).tobytes() == out.tobytes()


def test_two_rank_threads_at_once_stay_bitwise_the_one_owner_run(rank_threads):
    """The rank threads share the cache and prepare concurrently; each block
    has one owner, so no two threads ever launch the same call."""
    mk = build_mini_kochi()
    cfg = SimulationConfig(dt=mk.dt)
    want = RTiModel(mk.grid, mk.bathymetry, cfg)
    want.set_initial_condition(SOURCE)
    want.run(40)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = run_distributed(
            mk.grid, mk.bathymetry, cfg, equal_cell_assignment(mk.grid, 2, split_blocks=False),
            SOURCE, 40, timeout=120.0,
        )
    finally:
        sys.setswitchinterval(interval)
    assert got.keys() == want.states.keys()
    for bid, st in want.states.items():
        assert got[bid].tobytes() == st.eta_interior().tobytes()


def test_a_kernel_span_says_what_ran_the_block_not_what_the_process_chose():
    """Without a dry threshold a face is not closed exactly where its depth is
    0, so NLMNT2 and OUTPUT decline the nest — block by block, which is what
    ``balance.calibrate`` fits per executor."""
    import dataclasses

    from repro import obs
    from repro.core.pipeline import run_step
    from repro.obs import trace as obstrace
    from tests.test_scratch_arena import beach_model

    model = beach_model(30, 40)
    model.run(3)
    cfg = dataclasses.replace(model.config)
    object.__setattr__(cfg, "dry_threshold", 0.0)  # (a config refuses to be built so)
    obs.disable()
    obs.reset()
    try:
        obs.enable()
        with obs.context(obstrace.TraceContext("t")), np.errstate(all="ignore"):
            model.step()
            run_step(model._plan, model.states, model._owner, cfg, outputs=model.outputs, time=1.0)
        spans = obs.get_tracer().export()
    finally:
        obs.disable()
        obs.reset()
    ran = {
        kernel: [s["args"]["executor"] for s in spans if s["name"] == kernel + ".kernel"]
        for kernel in ("NLMASS", "NLMNT2", "OUTPUT")
    }
    chosen = loopnest.choice().executor
    assert ran == {
        "NLMASS": [chosen, chosen], "NLMNT2": [chosen, "numpy"], "OUTPUT": [chosen, "numpy"],
    }
