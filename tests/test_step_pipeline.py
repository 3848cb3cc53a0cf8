"""One Fig.-2 step pipeline: what holds because it is written once.

``repro.core.pipeline.run_step`` is the only step body; ``RTiModel`` is
its one-owner case and every rank of ``run_distributed`` — a forked
process here, wherever the test does not need to watch the ranks from
inside — runs it with its own ownership view.  So any assignment of blocks to ranks is
byte-equal to the single-process run, the distributed paths check CFL
and emit kernel spans like the model does, and nothing outside that one
function calls the kernels or opens a phase span.
"""

import ast
import functools
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.balance.calibrate import calibrate_from_spans, kernel_samples
from repro.core import RTiModel, SimulationConfig, pipeline
from repro.core.state import BlockState
from repro.errors import CFLError
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.obs.critpath import analyze_spans
from repro.par.decomposition import (
    Decomposition,
    RankWork,
    WorkItem,
    equal_cell_assignment,
)
from repro.par.driver import run_distributed
from repro.resilience.survive import survivable_run_distributed
from repro.runtime.breakdown import BREAKDOWN_PHASES
from repro.topo import build_mini_kochi
from repro.validation import SlopedBathymetry
from tests.rank_worlds import forked_ranks

SRC = Path(pipeline.__file__).resolve().parents[1]  # src/repro
SOURCE = GaussianSource(x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0)


# ---------------------------------------------------------------------------
# (a) Any owner map is byte-equal to the one-owner run
# ---------------------------------------------------------------------------


def _nest():
    """Two levels: a column cut in two beside an uncut one (partial
    seams), under a child level whose first block straddles the cut
    (two parents) and whose own columns meet in partial seams too."""
    coarse = [
        Block(0, 1, 0, 0, 6, 5),
        Block(1, 1, 0, 5, 6, 3),
        Block(2, 1, 6, 0, 6, 8),
    ]
    fine = [
        Block(3, 2, 12, 9, 6, 12),
        Block(4, 2, 18, 9, 6, 6),
        Block(5, 2, 18, 15, 6, 6),
    ]
    return NestedGrid(
        [
            GridLevel(index=1, dx=900.0, blocks=coarse),
            GridLevel(index=2, dx=300.0, blocks=fine),
        ]
    )


NEST = _nest()
NEST_BATHY = SlopedBathymetry(45.0, 0.008)  # goes dry inside the domain
NEST_CFG = SimulationConfig(dt=3.0)
NEST_SOURCE = GaussianSource(x0=5_400.0, y0=3_000.0, amplitude=1.5, sigma=1_500.0)
NEST_STEPS = 20


def _decomposition(grid, owners):
    """Whole-block decomposition from one rank number per block, in
    ``grid.all_blocks()`` order; ranks renumbered densely from 0."""
    dense = {r: k for k, r in enumerate(dict.fromkeys(owners))}
    items = [[] for _ in dense]
    for blk, r in zip(grid.all_blocks(), owners):
        items[dense[r]].append(WorkItem(blk))
    return Decomposition(
        grid,
        tuple(
            RankWork(k, its[0].block.level, tuple(its))
            for k, its in enumerate(items)
        ),
    )


@functools.cache
def _single_process_nest():
    model = RTiModel(NEST, NEST_BATHY, NEST_CFG)
    model.set_initial_condition(NEST_SOURCE)
    model.run(NEST_STEPS)
    return {bid: s.eta_interior().copy() for bid, s in model.states.items()}


def test_the_nest_has_a_two_parent_child_and_partial_seams():
    assert len(NEST.parent_blocks_of(NEST.block(3))) == 2
    partial = [
        (a, b)
        for lvl in NEST.levels
        for a, b in lvl.neighbor_pairs()
        if a.gi1 == b.gi0 and (a.gj0, a.gj1) != (b.gj0, b.gj1)
    ]
    assert len(partial) >= 3


@settings(max_examples=30, deadline=None)
@given(owners=st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_any_owner_map_is_byte_equal_to_the_single_process_run(owners):
    want = _single_process_nest()
    assert max(np.abs(eta).max() for eta in want.values()) > 0.1
    with forked_ranks():
        got = run_distributed(
            NEST, NEST_BATHY, NEST_CFG, _decomposition(NEST, owners),
            NEST_SOURCE, NEST_STEPS, comm_timeout=20.0,
        )
    assert got.keys() == want.keys()
    for bid, eta in want.items():
        assert got[bid].tobytes() == eta.tobytes(), (owners, bid)


# ---------------------------------------------------------------------------
# Bugfix: the distributed paths check CFL like the model does
# ---------------------------------------------------------------------------


def _unstable_mini_kochi():
    mk = build_mini_kochi()
    cfg = SimulationConfig(dt=4 * mk.dt)
    with pytest.raises(CFLError):
        RTiModel(mk.grid, mk.bathymetry, cfg)
    return mk, cfg, equal_cell_assignment(mk.grid, 2, split_blocks=False)


@pytest.mark.usefixtures("rank_processes")
def test_run_distributed_rejects_a_dt_above_an_owned_blocks_cfl_bound():
    mk, cfg, decomp = _unstable_mini_kochi()
    t0 = time.perf_counter()
    with pytest.raises(CFLError) as caught:
        run_distributed(
            mk.grid, mk.bathymetry, cfg, decomp, SOURCE, 200, comm_timeout=60.0
        )
    assert caught.value.failed_rank in (0, 1)
    # The sibling is woken by mailbox poisoning, not left to time out.
    assert time.perf_counter() - t0 < 30.0


def test_survivable_run_rejects_it_too_instead_of_recovering():
    mk, cfg, decomp = _unstable_mini_kochi()
    t0 = time.perf_counter()
    with pytest.raises(CFLError) as caught:
        survivable_run_distributed(
            mk.grid, mk.bathymetry, cfg, decomp, SOURCE, 200, comm_timeout=60.0
        )
    assert caught.value.failed_rank in (0, 1)
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# (b) A traced distributed run has what the model's trace has
# ---------------------------------------------------------------------------


@pytest.fixture
def traced():
    obs.disable()
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


@pytest.mark.usefixtures("rank_processes")
def test_rank_threads_emit_kernel_spans_that_calibrate_fits(traced):
    mk = build_mini_kochi()
    decomp = equal_cell_assignment(mk.grid, 2, split_blocks=False)
    run_distributed(
        mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt), decomp, SOURCE, 5
    )
    spans = obs.get_tracer().export()
    sizes = {b.block_id: b.n_cells for b in mk.grid.all_blocks()}
    for routine in ("NLMASS", "NLMNT2"):
        kernels = [s for s in spans if s["name"] == routine + ".kernel"]
        assert len(kernels) == 5 * len(sizes)
        assert {s["rank"] for s in kernels} == {0, 1}
        assert sorted(s["args"]["cells"] for s in kernels) == sorted(
            5 * list(sizes.values())
        )
        cells, _ = kernel_samples(spans, routine)
        assert len(cells) == len(kernels)
    # NLMNT2 is the routine the Fig.-5 model is fitted to (NLMASS on these
    # block sizes is all per-call cost: its slope drowns in thread noise).
    fit = calibrate_from_spans(spans, "NLMNT2")
    assert fit.slope_us_per_cell > 0.0
    names = {s["name"] for s in spans}
    assert {"restrict", "interp", "distributed"} <= names

    # The nested spans change nothing in the compute-vs-halo attribution.
    full = analyze_spans(spans)
    phases = analyze_spans([s for s in spans if s["name"] in BREAKDOWN_PHASES])
    assert [r.rank for r in full.ranks] == [0, 1]
    for a, b in zip(full.ranks, phases.ranks):
        assert (a.compute_us, a.exchange_us) == (b.compute_us, b.exchange_us)
        assert a.phase_us == b.phase_us
    assert full.critical.rank == phases.critical.rank


# ---------------------------------------------------------------------------
# (c) Structural guard: one caller of the kernels, one emitter per phase
# ---------------------------------------------------------------------------


def _calls_in_src():
    """(callee name, first string argument, file, enclosing function)."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                arg = node.args[0] if node.args else None
                text = arg.value if isinstance(arg, ast.Constant) else None
                yield callee, text, path.relative_to(SRC).as_posix(), fn.name


def test_one_function_calls_the_kernels_and_opens_the_phase_spans():
    calls = list(_calls_in_src())
    for kernel, home in (("nlmass", "core/mass.py"), ("nlmnt2", "core/momentum.py")):
        callers = {
            (path, fn) for callee, _, path, fn in calls
            if callee == kernel and path != home
        }
        assert callers == {("core/pipeline.py", "run_step")}
    for phase in BREAKDOWN_PHASES:
        openers = [
            (path, fn) for callee, text, path, fn in calls
            if callee in ("span", "_span") and text == phase
        ]
        assert openers == [("core/pipeline.py", "run_step")], phase


@pytest.mark.usefixtures("rank_processes")
def test_model_step_and_rank_step_both_reach_that_function(monkeypatch):
    # Each call is counted in the metrics registry under the code object
    # that made it: a forked rank's counters come home to the launcher, so
    # the counts are every rank's.
    from repro.obs.metrics import get_registry

    name = "test_kernel_callers_total"

    def callers():
        return {
            (dict(labels)["kernel"], dict(labels)["caller"]): c.value
            for (n, labels), c in get_registry().counters().items()
            if n == name
        }

    def counting(kernel_name):
        kernel = getattr(pipeline, kernel_name)

        def wrapper(*args, **kwargs):
            code = sys._getframe(1).f_code
            get_registry().counter(name, labels={
                "kernel": kernel_name,
                "caller": f"{code.co_filename}:{code.co_firstlineno}",
            }).inc()
            return kernel(*args, **kwargs)

        return wrapper

    for kernel_name in ("nlmass", "nlmnt2"):
        monkeypatch.setattr(pipeline, kernel_name, counting(kernel_name))

    before = callers()
    model = RTiModel(NEST, NEST_BATHY, NEST_CFG)
    model.step()
    from_model = sum(callers().values()) - sum(before.values())
    assert from_model == 2 * len(model.states)
    run_distributed(
        NEST, NEST_BATHY, NEST_CFG, _decomposition(NEST, [0, 1, 0, 1, 0, 1]),
        NEST_SOURCE, 1,
    )
    after = callers()
    assert sum(after.values()) - sum(before.values()) == 2 * from_model
    grew = {key for key, n in after.items() if n > before.get(key, 0)}
    run_step = pipeline.run_step.__code__
    assert {caller for _kernel, caller in grew} == {
        f"{run_step.co_filename}:{run_step.co_firstlineno}"
    }


# ---------------------------------------------------------------------------
# Import cycle: core.model -> obs -> runtime -> par -> par.driver -> core
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "first", ["repro.par.driver", "repro.core.model", "repro.obs",
              "repro.core.pipeline"],
)
def test_each_module_of_the_cycle_imports_first_in_a_fresh_interpreter(first):
    done = subprocess.run(
        [sys.executable, "-c", f"import {first}"],
        env={"PYTHONPATH": str(SRC.parent)}, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_importing_the_distributed_driver_does_not_import_what_forking_needs():
    """``setup.import_ms`` of the workloads that never fork: the process
    world and its ``multiprocessing`` arrive with the first forked run."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.par, repro.par.driver; print(sorted("
         "m for m in sys.modules if m.startswith('multiprocessing')"
         " or m in ('mmap', 'repro.par.process_world')))"],
        env={"PYTHONPATH": str(SRC.parent)}, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# BlockState.capture / restore
# ---------------------------------------------------------------------------


def test_capture_is_a_deep_copy_in_checkpoint_layout_and_restore_is_bitwise():
    rng = np.random.default_rng(3)
    state = BlockState(Block(0, 1, 0, 0, 5, 4), 10.0, rng.uniform(1, 9, (4, 5)))
    for arr in state.state_arrays().values():
        arr[...] = rng.normal(size=arr.shape)
    state.swap()
    z0, z1, m0, m1, n0, n1, flip = bufs = state.capture()
    assert flip == state.flip == 1
    assert z1 is not state.z_old and np.array_equal(z1, state.z_old)
    assert np.array_equal(z0, state.z_new)
    assert m0.shape == state.m_new.shape and n1.shape == state.n_old.shape
    want = [a.tobytes() for a in state.state_arrays().values()]

    for arr in state.state_arrays().values():
        arr[...] = 0.0
    state.swap()
    state.restore(bufs)
    assert [a.tobytes() for a in state.state_arrays().values()] == want
    assert state.flip == 1
