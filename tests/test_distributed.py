"""Distributed (simulated-MPI) runs vs the single-process model.

The acceptance criterion is the paper's own: the communication
reorganization must not change the physics.  Every configuration below
must be *bitwise* identical to the single-process RTiModel — on forked
rank processes (``@forked``: the ``rank_processes`` fixture fails a run
that leaves a child behind); ``TestWorldSelection`` covers how the ranks
are launched and when a run is refused, ``tests/test_survive.py`` the
bitwise survivable runs.
"""

import numpy as np
import pytest

from repro.core import RTiModel, SimulationConfig
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.par.decomposition import (
    Decomposition,
    RankWork,
    WorkItem,
    equal_cell_assignment,
)
from repro.par import driver
from repro.par.comm import run_ranks
from repro.par.driver import run_distributed
from repro.errors import DecompositionError
from repro.topo import build_mini_kochi
from repro.validation import FlatBathymetry
from tests.rank_worlds import (
    assert_nothing_left_behind,
    slot_sizes,
    wait_for_one_thread,
)


forked = pytest.mark.usefixtures("rank_processes")


def reference_run(grid, bathy, cfg, source, n_steps):
    model = RTiModel(grid, bathy, cfg)
    if source is not None:
        model.set_initial_condition(source)
    model.run(n_steps)
    return {
        bid: st.eta_interior().copy() for bid, st in model.states.items()
    }


def assert_identical(a: dict, b: dict):
    assert a.keys() == b.keys()
    for bid in a:
        assert np.array_equal(a[bid], b[bid]), (
            f"block {bid}: max diff {np.abs(a[bid] - b[bid]).max()}"
        )


@forked
class TestSingleLevel:
    def grid(self):
        return NestedGrid(
            [
                GridLevel(
                    index=1,
                    dx=100.0,
                    blocks=[
                        Block(0, 1, 0, 0, 24, 48),
                        Block(1, 1, 24, 0, 24, 48),
                    ],
                )
            ]
        )

    def test_two_ranks_bitwise(self):
        grid = self.grid()
        bathy = FlatBathymetry(50.0)
        cfg = SimulationConfig(dt=1.0, boundary="wall")
        src = GaussianSource(x0=2400.0, y0=2400.0, amplitude=1.0, sigma=600.0)
        decomp = Decomposition(
            grid,
            (
                RankWork(0, 1, (WorkItem(grid.block(0)),)),
                RankWork(1, 1, (WorkItem(grid.block(1)),)),
            ),
        )
        dist = run_distributed(grid, bathy, cfg, decomp, src, n_steps=30)
        ref = reference_run(grid, bathy, cfg, src, 30)
        assert_identical(ref, dist)

    def test_one_rank_trivially_identical(self):
        grid = self.grid()
        bathy = FlatBathymetry(50.0)
        cfg = SimulationConfig(dt=1.0, boundary="open")
        src = GaussianSource(x0=2400.0, y0=2400.0, amplitude=1.0, sigma=600.0)
        decomp = Decomposition(
            grid,
            (
                RankWork(
                    0, 1, (WorkItem(grid.block(0)), WorkItem(grid.block(1)))
                ),
            ),
        )
        dist = run_distributed(grid, bathy, cfg, decomp, src, n_steps=25)
        ref = reference_run(grid, bathy, cfg, src, 25)
        assert_identical(ref, dist)


@forked
class TestNested:
    def test_mini_kochi_distributed_bitwise(self):
        """Five levels, ten blocks, ranks split across levels."""
        mk = build_mini_kochi()
        cfg = SimulationConfig(dt=mk.dt)
        src = GaussianSource(
            x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0
        )
        decomp = equal_cell_assignment(mk.grid, 5, split_blocks=False)
        n_steps = 120
        dist = run_distributed(
            mk.grid, mk.bathymetry, cfg, decomp, src, n_steps
        )
        ref = reference_run(mk.grid, mk.bathymetry, cfg, src, n_steps)
        assert_identical(ref, dist)

    def test_mini_kochi_max_ranks(self):
        """One rank per block (the most communication-heavy split)."""
        mk = build_mini_kochi()
        cfg = SimulationConfig(dt=mk.dt)
        src = GaussianSource(
            x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0
        )
        blocks = mk.grid.all_blocks()
        decomp = Decomposition(
            mk.grid,
            tuple(
                RankWork(r, b.level, (WorkItem(b),))
                for r, b in enumerate(blocks)
            ),
        )
        n_steps = 60
        dist = run_distributed(
            mk.grid, mk.bathymetry, cfg, decomp, src, n_steps
        )
        ref = reference_run(mk.grid, mk.bathymetry, cfg, src, n_steps)
        assert_identical(ref, dist)


class TestValidation:
    def test_rejects_row_split_decompositions(self):
        mk = build_mini_kochi()
        cfg = SimulationConfig(dt=mk.dt)
        decomp = equal_cell_assignment(mk.grid, 12)  # forces row splits
        has_strip = any(
            not it.is_whole_block
            for rw in decomp.ranks
            for it in rw.items
        )
        if not has_strip:
            pytest.skip("decomposition happened to be whole-block")
        with pytest.raises(DecompositionError):
            run_distributed(mk.grid, mk.bathymetry, cfg, decomp, None, 1)


@forked
class TestAutoNestDistributed:
    def test_2d_block_layout_bitwise(self):
        """The hard case: an auto-generated 2-D block mosaic (59 blocks,
        L-shaped adjacencies, corner ghosts written by multiple seams,
        multi-level JNQ cascades) must still be bitwise identical."""
        from repro.topo import AutoNestConfig, ShelfBathymetry, build_auto_nest

        bathy = ShelfBathymetry(
            ocean_depth=2500.0, shelf_width=6_000.0, coast_y=8_000.0,
            coast_amplitude=600.0, coast_wavelength=9_000.0, land_slope=0.02,
        )
        grid = build_auto_nest(
            bathy, 27_000.0, 27_000.0,
            AutoNestConfig(n_levels=3, dx_coarsest=270.0, dt=0.5,
                           coastal_band_m=400.0),
        )
        cfg = SimulationConfig(dt=0.5)
        src = GaussianSource(x0=13_000.0, y0=18_000.0, amplitude=1.5,
                             sigma=2_000.0)
        decomp = equal_cell_assignment(grid, 4, split_blocks=False)
        n_steps = 40
        dist = run_distributed(grid, bathy, cfg, decomp, src, n_steps,
                               timeout=240.0)
        ref = reference_run(grid, bathy, cfg, src, n_steps)
        assert_identical(ref, dist)


def _two_blocks():
    grid = TestSingleLevel().grid()
    decomp = Decomposition(
        grid,
        (
            RankWork(0, 1, (WorkItem(grid.block(0)),)),
            RankWork(1, 1, (WorkItem(grid.block(1)),)),
        ),
    )
    cfg = SimulationConfig(dt=1.0, boundary="wall")
    src = GaussianSource(x0=2400.0, y0=2400.0, amplitude=1.0, sigma=600.0)
    return grid, FlatBathymetry(50.0), cfg, decomp, src


class TestWorldSelection:
    """``run_distributed`` and the survivable runtime always fork, with
    slots sized from the run's largest message — or refuse.  There is no
    flag to get this wrong with."""

    def sizes(self):
        grid, bathy, cfg, decomp, src = _two_blocks()
        with slot_sizes() as seen:
            got = run_distributed(
                grid, bathy, cfg, decomp, src, n_steps=4, comm_timeout=5.0,
            )
        assert_identical(reference_run(grid, bathy, cfg, src, 4), got)
        return seen

    def test_a_plain_run_forks_with_slots_that_hold_its_largest_message(self):
        wait_for_one_thread()
        # One seam between two 24 x 48 blocks; its largest message is the
        # n field's: (48 + 1 faces + 2 ghost rows each side) x 2 ghost
        # columns of float64.
        assert self.sizes() == [(2, (48 + 1 + 4) * 2 * 8)]

    def test_an_injected_fault_plan_forks_too(self):
        """Faults are injected by the survivable runtime, on the same
        rank processes with the same slots as a plain run."""
        from repro.resilience import FaultPlan, survive

        grid, bathy, cfg, decomp, src = _two_blocks()
        wait_for_one_thread()
        with slot_sizes(survive) as seen:
            got, _report = survive.survivable_run_distributed(
                grid, bathy, cfg, decomp, src, 4,
                fault_plan=FaultPlan([]), comm_timeout=5.0,
            )
        assert_identical(reference_run(grid, bathy, cfg, src, 4), got)
        assert seen == [(2, (48 + 1 + 4) * 2 * 8)]
        assert_nothing_left_behind()

    def test_a_caller_that_is_not_the_only_thread_does_not_fork(self):
        """It is refused: a lock another thread holds at the fork is never
        released in the child, and there is no second world to fall back
        on."""
        import threading

        from repro.errors import CommunicationError

        refused = []

        def run():
            try:
                self.sizes()
            except CommunicationError as exc:
                refused.append(str(exc))

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(60.0)
        assert not worker.is_alive()
        assert len(refused) == 1 and "only live thread" in refused[0]

    def test_slots_hold_the_largest_nesting_message_too(self, monkeypatch):
        """On mini-Kochi the largest message is a JNZ or JNQ buffer, not a
        seam: every array that crosses ranks must fit the slot."""
        from repro.obs.metrics import get_registry

        mk = build_mini_kochi()
        cfg = SimulationConfig(dt=mk.dt)
        decomp = equal_cell_assignment(mk.grid, 5, split_blocks=False)
        src = GaussianSource(x0=4_000.0, y0=16_000.0, amplitude=2.0,
                             sigma=2_500.0)
        plan = driver.build_step_plan(mk.grid, cfg)
        slot = driver._slot_bytes(plan, decomp.owner_map(), cfg)
        name = "test_slots_sent_arrays_total"

        def sizes_sent():
            return {
                int(dict(labels)["nbytes"])
                for (n, labels), c in get_registry().counters().items()
                if n == name and c.value
            }

        class Recording:
            """Every rank's array sizes, as labels of a counter: a forked
            rank's counters come home to the launcher."""

            def __init__(self, comm):
                self.comm, self.rank = comm, comm.rank

            def send(self, obj, dest, tag=0):
                if isinstance(obj, np.ndarray):
                    get_registry().counter(
                        name, labels={"nbytes": str(obj.nbytes)}
                    ).inc()
                self.comm.send(obj, dest, tag)

            def recv(self, *args, **kwargs):
                return self.comm.recv(*args, **kwargs)

        def recording(n_ranks, fn, **kwargs):
            return run_ranks(n_ranks, fn, comm_wrap=Recording, **kwargs)

        before = sizes_sent()
        monkeypatch.setattr(driver, "run_ranks", recording)
        wait_for_one_thread()
        run_distributed(mk.grid, mk.bathymetry, cfg, decomp, src, 2)
        sent = sizes_sent() - before
        assert sent and max(sent) <= slot
        assert slot < 4 * max(sent)  # a bound, not a guess


class _SignalsTheLauncher:
    """A flat sea bed that SIGTERMs the launcher when sampled in it: as
    soon as rank 0 allocates its block state."""

    def __init__(self, launcher_pid):
        self.launcher_pid = launcher_pid

    def sample_cells(self, *args):
        import os
        import signal

        if os.getpid() == self.launcher_pid:
            os.kill(self.launcher_pid, signal.SIGTERM)
        return FlatBathymetry(50.0).sample_cells(*args)


def test_a_signalled_run_is_journaled_once_and_leaves_nothing(tmp_path):
    """The survivable runtime owns a multi-rank run's guard: a SIGTERM is
    journaled once and the launcher reaps its forked ranks at once, long
    before their 10,000 steps or their comm timeout."""
    import os
    import signal

    from repro.persist import RunStore
    from repro.resilience.survive import survivable_run_distributed

    def unguarded(_signum, _frame):
        raise AssertionError("SIGTERM reached the caller's handler")

    grid, _bathy, cfg, decomp, src = _two_blocks()
    store = RunStore(tmp_path / "run", create=True)
    # Without the runtime's guard the signal must fail this test, not
    # terminate the test process.
    previous = signal.signal(signal.SIGTERM, unguarded)
    try:
        with pytest.raises(KeyboardInterrupt):
            survivable_run_distributed(
                grid, _SignalsTheLauncher(os.getpid()), cfg, decomp, src,
                n_steps=10_000, store=store, comm_timeout=2,
            )
    finally:
        signal.signal(signal.SIGTERM, previous)
    events = [e["event"] for e in store.events()]
    assert events == ["distributed_start", "interrupted"]
    interrupted = store.first_event("interrupted")
    assert (interrupted["signal"], interrupted["phase"]) == (
        "SIGTERM", "distributed"
    )
    wait_for_one_thread(5.0)
    assert_nothing_left_behind()
