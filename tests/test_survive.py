"""In-flight rank-failure survival (repro.resilience.survive).

The tentpole contract: kill a rank mid-run and the distributed forecast
completes from the latest diskless buddy-checkpoint epoch — not from
t=0 — via shrink or spare-rank respawn, **bitwise identical** to a
failure-free run.  Plus the supporting machinery: buddy checkpointing,
shrink re-decomposition, MAD straggler detection, and straggler
hedging.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import RTiModel, SimulationConfig
from repro.errors import (
    ConfigurationError,
    DecompositionError,
)
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.obs.log import RUN_KINDS
from repro.par.decomposition import (
    Decomposition,
    RankWork,
    WorkItem,
    equal_cell_assignment,
)
from repro.persist import RunStore
from repro.core.pipeline import build_step_plan
from repro.par.comm import run_ranks
from repro.par.driver import _RankRuntime
from repro.resilience import Checkpoint, CheckpointRing, FaultPlan, FaultSpec
from repro.resilience.health import StepTimeMonitor
from repro.resilience.survive import (
    EPOCHS_HELD,
    SurvivalConfig,
    _HedgeController,
    _assemble_recovery,
    _SurvivableLoop,
    buddy_of,
    survivable_run_distributed,
)
from repro.topo import build_mini_kochi
from repro.validation import FlatBathymetry


def flat_grid(n_blocks=2):
    w = 48 // n_blocks
    return NestedGrid(
        [
            GridLevel(
                index=1,
                dx=100.0,
                blocks=[
                    Block(i, 1, i * w, 0, w, 48) for i in range(n_blocks)
                ],
            )
        ]
    )


def whole_block_decomp(grid, n_ranks):
    return Decomposition(
        grid,
        tuple(
            RankWork(r, 1, (WorkItem(grid.block(r)),))
            for r in range(n_ranks)
        ),
    )


def source():
    return GaussianSource(x0=2400.0, y0=2400.0, amplitude=1.0, sigma=600.0)


def config():
    return SimulationConfig(dt=1.0, boundary="wall")


def reference_run(grid, bathy, cfg, src, n_steps):
    model = RTiModel(grid, bathy, cfg)
    model.set_initial_condition(src)
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


# -- unit: ring buddies and the rings they fill --------------------------


class TestBuddyRings:
    def test_buddy_ring(self):
        assert buddy_of(0, 4) == 1
        assert buddy_of(3, 4) == 0
        assert buddy_of(0, 1) == 0

    @staticmethod
    def snap(epoch, rank=0):
        """Rank *rank*'s checkpoint of its one block at *epoch*."""
        bufs = (np.full(2, float(rank)),) * 6 + (0,)
        return Checkpoint(epoch * 10, epoch * 10.0, 1.0, 1, {rank: bufs}).digested()

    @classmethod
    def ring(cls, *held):
        ring = CheckpointRing(capacity=2 * EPOCHS_HELD)
        for epoch, rank in held:
            ring.hold(cls.snap(epoch, rank))
        return ring

    def test_capacity_prunes_oldest(self):
        ring = self.ring(*((e, r) for e in range(4) for r in (0, 1)))
        assert [c.step for c in ring.entries()] == [20, 20, 30, 30]

    def test_assemble_picks_latest_complete_epoch(self):
        grid = flat_grid(2)
        r0 = self.ring((1, 0), (2, 0))
        r1 = self.ring((1, 1), (2, 1))
        # Epoch 3 exists only on rank 0: incomplete, must be skipped.
        r0.hold(self.snap(3, 0))
        ckpt = _assemble_recovery(grid, [r0, r1])
        assert ckpt.step == 20
        assert set(ckpt.states) == {0, 1}

    def test_assemble_uses_buddy_replica_for_dead_rank(self):
        grid = flat_grid(2)
        # Only rank 0's ring survives; it holds rank 1's state as the
        # ring replica (1's buddy is 0 in a 2-rank ring).
        ckpt = _assemble_recovery(grid, [self.ring((5, 0), (5, 1))])
        assert ckpt.step == 50
        assert set(ckpt.states) == {0, 1}

    def test_assemble_none_when_no_complete_epoch(self):
        grid = flat_grid(2)
        assert _assemble_recovery(grid, [self.ring((0, 0))]) is None


class TestReplicasOnRankThreads:
    """A real 2-rank thread-world run of the rank loop: the replica a rank
    receives is a copy, so neighbour repair works where the survivable
    runtime runs."""

    N_STEPS = 12

    @pytest.fixture(scope="class")
    def rings(self):
        grid, bathy, cfg = flat_grid(2), FlatBathymetry(50.0), config()
        plan = build_step_plan(grid, cfg)
        owner = whole_block_decomp(grid, 2).owner_map()

        def rank_main(comm):
            rt = _RankRuntime(comm, grid, owner, bathy, cfg, plan, source())
            loop = _SurvivableLoop(
                comm, rt, SurvivalConfig(checkpoint_every=5), None,
                self.N_STEPS, 0,
            )
            loop.run()
            return loop.ring

        return grid, run_ranks(2, rank_main, timeout=60.0, comm_timeout=10.0)

    @staticmethod
    def holding(ring, bid):
        return [c for c in ring.entries() if bid in c.states]

    def test_the_rings_hold_the_newest_epochs_own_and_replica(self, rings):
        _grid, (r0, r1) = rings
        for ring in (r0, r1):
            assert [c.step for c in ring.entries()] == [5, 5, 10, 10]

    def test_a_replica_shares_no_array_with_its_senders_checkpoint(self, rings):
        _grid, (r0, r1) = rings
        pairs = list(zip(self.holding(r0, 0), self.holding(r1, 0)))
        assert [(own.step, rep.step) for own, rep in pairs] == [(5, 5), (10, 10)]
        for own, replica in pairs:
            for a, b in zip(own.states[0][:6], replica.states[0][:6]):
                assert np.array_equal(a, b)
                assert not np.shares_memory(a, b)

    def test_a_flipped_own_checkpoint_is_repaired_from_the_replica(self, rings):
        grid, (r0, r1) = rings
        own, replica = self.holding(r0, 0)[-1], self.holding(r1, 0)[-1]
        clean = [a.copy() for a in own.states[0][:6]]
        own.states[0][2].view(np.uint64).flat[7] ^= np.uint64(1 << 51)
        try:
            ckpt = _assemble_recovery(grid, [r0, r1])
            assert ckpt.step == own.step == 10
            for got, want, rep in zip(ckpt.states[0][:6], clean, replica.states[0][:6]):
                assert got is rep
                assert got.tobytes() == want.tobytes()
        finally:
            own.states[0][2].view(np.uint64).flat[7] ^= np.uint64(1 << 51)


class TestSurvivalConfig:
    def test_rejects_bad_policy(self):
        with pytest.raises(ConfigurationError):
            SurvivalConfig(policy="pray")

    def test_rejects_negative_spares(self):
        with pytest.raises(ConfigurationError):
            SurvivalConfig(spare_ranks=-1)


# -- unit: shrink re-decomposition ---------------------------------------


class TestShrinkDecomposition:
    def test_covers_all_blocks_on_fewer_ranks(self):
        from repro.balance.apply import shrink_decomposition

        mk = build_mini_kochi()
        all_ids = {b.block_id for b in mk.grid.all_blocks()}
        for n in (1, 3, 4):
            d = shrink_decomposition(mk.grid, n, iterations=50)
            assert d.n_ranks == n
            seen = [
                it.block.block_id for rw in d.ranks for it in rw.items
            ]
            assert sorted(seen) == sorted(all_ids)

    def test_rejects_more_ranks_than_blocks(self):
        from repro.balance.apply import shrink_decomposition

        grid = flat_grid(2)
        with pytest.raises(DecompositionError):
            shrink_decomposition(grid, 3)


# -- unit: MAD straggler detection ---------------------------------------


class TestStepTimeMonitor:
    def test_flags_obvious_straggler(self):
        mon = StepTimeMonitor()
        per = {0: 0.10, 1: 0.11, 2: 0.10, 3: 0.55}
        assert mon.stragglers(per) == [3]

    def test_lockstep_ranks_not_flagged(self):
        mon = StepTimeMonitor()
        per = {0: 0.100, 1: 0.1001, 2: 0.0999, 3: 0.1002}
        assert mon.stragglers(per) == []

    def test_needs_three_samples(self):
        mon = StepTimeMonitor()
        assert mon.stragglers({0: 0.1, 1: 99.0}) == []

    def test_worst_first_ordering(self):
        mon = StepTimeMonitor()
        per = {0: 0.1, 1: 0.1, 2: 0.1, 3: 0.4, 4: 0.9}
        assert mon.stragglers(per) == [4, 3]


# -- integration: the survival paths, all bitwise ------------------------


class TestSurvivableRuns:
    N_STEPS = 30

    def setup_run(self, n_blocks=2):
        grid = flat_grid(n_blocks)
        bathy = FlatBathymetry(50.0)
        cfg = config()
        src = source()
        ref = reference_run(grid, bathy, cfg, src, self.N_STEPS)
        return grid, bathy, cfg, src, ref

    def test_failure_free_is_plain_distributed(self):
        grid, bathy, cfg, src, ref = self.setup_run()
        eta, report = survivable_run_distributed(
            grid, bathy, cfg, whole_block_decomp(grid, 2), src,
            self.N_STEPS, survival=SurvivalConfig(checkpoint_every=5),
            timeout=120.0, comm_timeout=10.0,
        )
        assert_identical(ref, eta)
        assert report.completed_via == "distributed"
        assert len(report.incarnations) == 1
        assert report.rank_failures == 0

    def test_crash_recovers_by_shrinking_not_from_t0(self, tmp_path):
        grid, bathy, cfg, src, ref = self.setup_run()
        plan = FaultPlan(
            [FaultSpec(kind="rank_crash", rank=1, step=24)], seed=1
        )
        store = RunStore(tmp_path / "run")
        eta, report = survivable_run_distributed(
            grid, bathy, cfg, whole_block_decomp(grid, 2), src,
            self.N_STEPS, survival=SurvivalConfig(checkpoint_every=5),
            fault_plan=plan, store=store, timeout=120.0, comm_timeout=5.0,
        )
        assert_identical(ref, eta)
        assert report.shrinks == 1 and report.rank_failures == 1
        # Resumed from epoch 4 (step 20) — not from t=0.
        last = report.incarnations[-1]
        assert last.action == "shrink"
        assert last.n_ranks == 1
        assert 0 < last.start_step <= 24
        # The failure and the recovery epoch are journaled write-ahead.
        events = store.events()
        assert any(
            ev["event"] == RUN_KINDS["rank_failure"].event and ev["ranks"] == [1]
            for ev in events
        )
        recs = [ev for ev in events if ev["event"] == RUN_KINDS["shrink"].event]
        assert recs and recs[0]["action"] == "shrink"
        assert recs[0]["step"] == last.start_step

    def test_crash_recovers_by_respawning_spare(self):
        grid, bathy, cfg, src, ref = self.setup_run()
        plan = FaultPlan(
            [FaultSpec(kind="rank_crash", rank=0, step=24)], seed=2
        )
        eta, report = survivable_run_distributed(
            grid, bathy, cfg, whole_block_decomp(grid, 2), src,
            self.N_STEPS,
            survival=SurvivalConfig(checkpoint_every=5, spare_ranks=1),
            fault_plan=plan, timeout=120.0, comm_timeout=5.0,
        )
        assert_identical(ref, eta)
        assert report.respawns == 1 and report.spares_used == 1
        assert report.shrinks == 0
        assert report.incarnations[-1].n_ranks == 2  # width preserved

    def test_message_drop_retries_same_width(self):
        grid, bathy, cfg, src, ref = self.setup_run()
        plan = FaultPlan(
            [FaultSpec(kind="msg_drop", rank=0, op=7)], seed=3
        )
        eta, report = survivable_run_distributed(
            grid, bathy, cfg, whole_block_decomp(grid, 2), src,
            self.N_STEPS, survival=SurvivalConfig(checkpoint_every=5),
            fault_plan=plan, timeout=120.0, comm_timeout=2.0,
        )
        assert_identical(ref, eta)
        assert report.epoch_retries == 1
        assert report.rank_failures == 0
        assert report.incarnations[-1].n_ranks == 2

    def test_breaker_falls_back_single_process_from_checkpoint(self):
        grid, bathy, cfg, src, ref = self.setup_run()
        plan = FaultPlan(
            [FaultSpec(kind="rank_crash", rank=1, step=24)], seed=4
        )
        eta, report = survivable_run_distributed(
            grid, bathy, cfg, whole_block_decomp(grid, 2), src,
            self.N_STEPS,
            survival=SurvivalConfig(checkpoint_every=5,
                                    max_rank_failures=0),
            fault_plan=plan, timeout=120.0, comm_timeout=5.0,
        )
        assert_identical(ref, eta)
        assert report.breaker_tripped
        assert report.completed_via == "single_process"

    def test_the_breakers_tail_is_journaled(self, tmp_path):
        grid, bathy, cfg, src, _ref = self.setup_run()
        plan = FaultPlan(
            [FaultSpec(kind="rank_crash", rank=1, step=24)], seed=4
        )
        store = RunStore(tmp_path / "run")
        survivable_run_distributed(
            grid, bathy, cfg, whole_block_decomp(grid, 2), src,
            self.N_STEPS,
            survival=SurvivalConfig(checkpoint_every=5, max_rank_failures=0,
                                    deadline_s=1e-6),
            fault_plan=plan, store=store, timeout=120.0, comm_timeout=5.0,
        )
        events = [ev["event"] for ev in store.events()]
        tail = events[events.index("fallback_single_process") + 1:]
        assert "degradation" in tail
        assert events[0] == "distributed_start"
        assert events[-1] == "distributed_complete"
        product = store.first_event("distributed_complete")["product"]
        assert (store.products_dir / product).is_file()

    def test_hedging_migrates_straggler_blocks(self, tmp_path):
        grid, bathy, cfg, src, ref = self.setup_run(n_blocks=3)
        # Rank 2 stalls 30 ms on every send: an unambiguous straggler.
        plan = FaultPlan(
            [
                FaultSpec(kind="straggler", rank=2, op=0, step=0,
                          span=100, factor=4.0, delay_s=0.03)
            ],
            seed=5,
        )
        store = RunStore(tmp_path / "run")
        eta, report = survivable_run_distributed(
            grid, bathy, cfg, whole_block_decomp(grid, 3), src,
            self.N_STEPS,
            survival=SurvivalConfig(
                checkpoint_every=10, hedge_stragglers=True,
            ),
            fault_plan=plan, store=store, timeout=200.0, comm_timeout=20.0,
        )
        assert_identical(ref, eta)
        assert report.hedge_attempts >= 1
        kinds = {ev.kind for ev in report.events}
        assert "hedge_migrate" in kinds
        # Every hedge decision is one journal line, in order, with its
        # step and detail.
        journaled = [
            (ev["event"], ev["step"], ev["detail"])
            for ev in store.events() if ev["event"].startswith("hedge_")
        ]
        assert [k for k, _s, _d in journaled[:2]] == [
            "hedge_migrate", "hedge_commit"
        ]
        assert journaled == [
            (ev.kind, ev.fields["step"], ev.detail) for ev in report.events
            if ev.kind.startswith("hedge_")
        ]

    def test_a_lost_hedge_is_journaled(self, tmp_path, monkeypatch):
        n_steps = 12  # one window to migrate, one to adjudicate
        grid, bathy, cfg, src, _ref = self.setup_run(n_blocks=3)
        ref = reference_run(grid, bathy, cfg, src, n_steps)
        # Rank 2 straggles from the start; once its blocks have moved,
        # rank 0 stalls harder, so the migration cannot pay off.
        plan = FaultPlan(
            [
                FaultSpec(kind="straggler", rank=2, op=0, step=0,
                          span=100, factor=4.0, delay_s=0.03),
                FaultSpec(kind="straggler", rank=0, op=20, step=0,
                          span=100, factor=4.0, delay_s=0.04),
            ],
            seed=5,
        )

        def stalled(hedge, _measured_s):
            """A rank's busy time is the stalls its sends drew since the
            last step, not the wall clock: the allreduce, MAD test,
            migration and adjudication then see the same numbers on a
            busy machine as on an idle one."""
            ops, seen = hedge.comm._op, getattr(hedge, "ops_seen", 0)
            hedge.ops_seen = ops
            hedge.window_busy += sum(
                f.delay_s for op in range(seen, ops) for f in plan.faults
                if f.rank == hedge.comm.rank and op >= f.op
            )

        monkeypatch.setattr(_HedgeController, "observe", stalled)
        store = RunStore(tmp_path / "run")
        eta, report = survivable_run_distributed(
            grid, bathy, cfg, whole_block_decomp(grid, 3), src, n_steps,
            survival=SurvivalConfig(
                checkpoint_every=10, hedge_stragglers=True,
            ),
            fault_plan=plan, store=store, timeout=200.0, comm_timeout=20.0,
        )
        assert_identical(ref, eta)
        journaled = [
            (ev["event"], ev["step"])
            for ev in store.events() if ev["event"].startswith("hedge_")
        ]
        assert journaled[:2] == [("hedge_migrate", 5), ("hedge_rollback", 10)]
        assert report.hedge_losses == 1 and report.hedge_wins == 0

    def test_two_lost_hedges_open_the_breaker_and_journal_it(self, tmp_path):
        """One rank's controller through two losses: its records, emitted
        as the orchestrator emits a rank's, are the journal's hedge lines."""
        from repro.obs.log import RunEvents

        class Comm:
            rank = 1  # a bystander: a migration only re-labels owners

            def __init__(self):
                slow2 = [(0, 0.01), (1, 0.01), (2, 0.1)]
                slow0 = [(0, 0.1), (1, 0.01), (2, 0.01)]
                self.windows = iter([slow2, slow0, slow2, slow0])

            def allreduce(self, _mine):
                return next(self.windows)

        hedge = _HedgeController(Comm(), SimpleNamespace(
            owner={0: 0, 1: 1, 2: 2}
        ))
        for step in (5, 10, 15, 20):
            hedge.scan(step)
        kinds = ["hedge_migrate", "hedge_rollback"] * 2 + [
            "hedge_breaker_open"
        ]
        assert [ev.kind for ev in hedge.events] == kinds
        store = RunStore(tmp_path / "run")
        events = RunEvents(store)
        for ev in hedge.events:
            events.emit(ev)
        assert [
            (ev["event"], ev["step"], ev["detail"]) for ev in store.events()
        ] == [(ev.kind, ev.fields["step"], ev.detail) for ev in hedge.events]


class TestMiniKochiAcceptance:
    """The issue's acceptance scenario: 5-rank mini-Kochi, crash at 80%."""

    N_STEPS = 120
    CRASH_STEP = 96  # 80% of 120

    @pytest.fixture(scope="class")
    def kochi(self):
        mk = build_mini_kochi()
        cfg = SimulationConfig(dt=mk.dt)
        src = GaussianSource(
            x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0
        )
        ref = reference_run(
            mk.grid, mk.bathymetry, cfg, src, self.N_STEPS
        )
        return mk, cfg, src, ref

    def _run(self, kochi, survival, plan):
        mk, cfg, src, ref = kochi
        decomp = equal_cell_assignment(mk.grid, 5, split_blocks=False)
        eta, report = survivable_run_distributed(
            mk.grid, mk.bathymetry, cfg, decomp, src, self.N_STEPS,
            survival=survival, fault_plan=plan,
            timeout=400.0, comm_timeout=10.0,
        )
        assert_identical(ref, eta)
        return report

    def test_shrink_at_80_percent_bitwise_with_metrics(self, kochi):
        import repro.obs as obs

        obs.reset()
        obs.enable()
        try:
            plan = FaultPlan(
                [
                    FaultSpec(kind="rank_crash", rank=2,
                              step=self.CRASH_STEP)
                ],
                seed=11,
            )
            report = self._run(
                kochi, SurvivalConfig(checkpoint_every=10), plan
            )
            assert report.shrinks == 1
            assert report.rank_failures == 1
            last = report.incarnations[-1]
            assert last.n_ranks == 4
            # Resumed from the epoch-9 buddy checkpoint, not from t=0.
            assert last.start_step == 90
            assert last.epoch == 9
            sample = obs.get_registry().sample("repro_recovery_")
            assert sample["repro_recovery_rank_failures_total"] == 1
            assert sample["repro_recovery_shrinks_total"] == 1
            assert sample["repro_recovery_epoch"] == 9
        finally:
            obs.reset()

    def test_respawn_at_80_percent_bitwise(self, kochi):
        plan = FaultPlan(
            [FaultSpec(kind="rank_crash", rank=2, step=self.CRASH_STEP)],
            seed=12,
        )
        report = self._run(
            kochi,
            SurvivalConfig(checkpoint_every=10, spare_ranks=1),
            plan,
        )
        assert report.respawns == 1 and report.spares_used == 1
        last = report.incarnations[-1]
        assert last.n_ranks == 5  # full width restored from the spare
        assert last.start_step == 90
