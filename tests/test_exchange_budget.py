"""Deterministic budget of the static exchange tables (no wall clock).

The seam, JNZ and JNQ geometry is built on a grid's first step and looked
up after: from step 2 on, the functions that derive it run zero times, in
the single-process model and on rank threads alike.  The tables are LRU
caches of one fixed size, so a process that builds grid after grid evicts
instead of growing.  On the compiled nest a warm step goes further: each
ghost fill, seam field, JNQ link and JNZ link is one foreign call and no
NumPy at all.
"""

import threading
from collections import Counter

import numpy as np
import pytest

from repro.core import RTiModel, SimulationConfig, boundary, pipeline
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.nesting import interp, restrict
from repro.par.decomposition import equal_cell_assignment
from repro.par.driver import run_distributed
from repro.topo import build_mini_kochi
from repro.validation import FlatBathymetry
from repro.xchg import halo, specs
from repro.xchg.offsets import TABLE_ENTRIES

from tests import executors

TABLES = (
    specs._seam_table,
    restrict._regions_of,
    restrict._buffer_layout,
    interp._build_flux_table,
)
GEOMETRY = (
    (specs, "_vertical_specs"),
    (specs, "_horizontal_specs"),
    (interp, "_edge_geometry"),
    (restrict, "restriction_region"),
)
SOURCE = GaussianSource(x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0)


def clear_tables():
    for table in TABLES:
        table.cache_clear()


@pytest.fixture
def geometry_calls(monkeypatch):
    """Cold tables, and a count of every call into the geometry builders."""
    calls, lock = Counter(), threading.Lock()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            with lock:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in GEOMETRY:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    clear_tables()
    yield calls
    clear_tables()


def test_model_derives_no_geometry_after_its_first_step(geometry_calls):
    mk = build_mini_kochi()
    model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
    model.set_initial_condition(SOURCE)
    model.step()
    first = Counter(geometry_calls)
    assert first["_vertical_specs"] + first["_horizontal_specs"] > 0
    assert first["_edge_geometry"] > 0 and first["restriction_region"] > 0
    for _ in range(7):
        model.step()
    assert geometry_calls == first


def test_rank_threads_derive_no_geometry_after_their_first_step(
    geometry_calls, rank_threads
):
    # On rank threads, so the counts are every rank's: forked ranks keep
    # theirs (tests/test_comm.py checks what a forked rank does send home).
    mk = build_mini_kochi()
    cfg = SimulationConfig(dt=mk.dt)
    decomp = equal_cell_assignment(mk.grid, 2, split_blocks=False)

    def calls_of(n_steps):
        clear_tables()
        geometry_calls.clear()
        run_distributed(mk.grid, mk.bathymetry, cfg, decomp, SOURCE, n_steps)
        return Counter(geometry_calls)

    one = calls_of(1)
    assert one["_edge_geometry"] > 0 and one["restriction_region"] > 0
    assert calls_of(8) == one


def test_every_table_has_the_one_fixed_size():
    assert {t.cache_info().maxsize for t in TABLES} == {TABLE_ENTRIES}


def _mosaic(columns, rows, cells=3):
    """columns x rows blocks of cells x cells: (2 c r - c - r) seams."""
    blocks = [
        Block(j * columns + i, 1, i * cells, j * cells, cells, cells)
        for j in range(rows)
        for i in range(columns)
    ]
    return NestedGrid([GridLevel(index=1, dx=100.0, blocks=blocks)])


def _eta_after_two_steps(grid):
    model = RTiModel(
        grid, FlatBathymetry(50.0), SimulationConfig(dt=1.0, boundary="wall")
    )
    model.set_initial_condition(
        GaussianSource(x0=2_500.0, y0=2_500.0, amplitude=1.0, sigma=1_500.0)
    )
    model.run(2)
    return {bid: st.eta_interior().copy() for bid, st in model.states.items()}


def test_three_grids_in_one_process_evict_rather_than_grow():
    clear_tables()
    grids = [_mosaic(20, 14), _mosaic(14, 20), _mosaic(18, 16)]
    n_seams = sum(len(g.level(1).neighbor_pairs()) for g in grids)
    assert n_seams > TABLE_ENTRIES  # more than the seam table holds
    first = _eta_after_two_steps(grids[0])
    for grid in grids[1:]:
        _eta_after_two_steps(grid)
    info = specs._seam_table.cache_info()
    assert info.currsize == info.maxsize == TABLE_ENTRIES
    assert info.misses > TABLE_ENTRIES  # so the oldest rows were dropped
    # Rows rebuilt after an eviction are the rows that were dropped.
    again = _eta_after_two_steps(grids[0])
    assert specs._seam_table.cache_info().currsize == TABLE_ENTRIES
    for bid, eta in first.items():
        assert np.array_equal(eta, again[bid])
    clear_tables()


#: The four exchange functions of a step, and the routine each launches.
LAUNCHES = {
    "fill_ghosts_zero_gradient": "moves",
    "exchange_halo": "moves",
    "interpolate_fluxes": "moves",
    "restrict_eta": "restrict",
}


def test_a_warm_step_on_the_nest_is_one_foreign_call_per_exchange_and_no_numpy(monkeypatch):
    """Steps 2..N of mini-Kochi: every ghost fill, every field of every seam,
    every JNQ and every JNZ link launches its routine once, and none of the
    four functions touches NumPy — no function of the ``np`` its module sees,
    no index into a state array, no array derived from one.  Counted by
    patching, per call."""
    nests = executors.compiled_nests()
    running, seen = [], []  # per call: [function, foreign calls, NumPy touches]

    def touched():
        if running:
            running[-1][2] += 1

    class Watched(np.ndarray):
        def __array_finalize__(self, obj):
            touched()

        def __getitem__(self, index):
            touched()
            return super().__getitem__(index)

        def __setitem__(self, index, value):
            touched()
            super().__setitem__(index, value)

    class NumPy:
        def __getattr__(self, name):
            touched()
            return getattr(np, name)

    def launching(name, fn):
        def launch(*args):
            if running:
                running[-1][1].append(name)
            return fn(*args)

        return launch

    def probed(name, fn):
        def call(*args, **kwargs):
            running.append([name, [], 0])
            try:
                return fn(*args, **kwargs)
            finally:
                seen.append(running.pop())

        return call

    for name in LAUNCHES:
        monkeypatch.setattr(pipeline, name, probed(name, getattr(pipeline, name)))
    for module in (boundary, halo, interp, restrict):
        monkeypatch.setattr(module, "np", NumPy(), raising=False)
    mk = build_mini_kochi()
    model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
    model.set_initial_condition(SOURCE)
    for st in model.states.values():
        st._z, st._m, st._n = ([a.view(Watched) for a in pair] for pair in (st._z, st._m, st._n))
        st.hz = st.hz.view(Watched)
    plan = pipeline.build_step_plan(model.grid, model.config)
    links = sum(len(of_level) for _level, of_level in plan.links)
    per_step = {
        "fill_ghosts_zero_gradient": 3 * len(model.states),
        "exchange_halo": 3 * len(plan.seams),
        "interpolate_fluxes": links,
        "restrict_eta": links,
    }
    with executors.on_nests(executors.wrapped(nests, launching)):
        model.step()
        del seen[:]
        for _ in range(6):
            model.step()
    assert Counter(name for name, *_ in seen) == {k: 6 * n for k, n in per_step.items()}
    assert all(foreign == [LAUNCHES[name]] and numpy == 0 for name, foreign, numpy in seen)
