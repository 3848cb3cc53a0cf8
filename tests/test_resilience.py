"""Tests for the operational resilience layer (repro.resilience).

Covers the satellite guarantees (configurable comm timeouts, rank ids on
failures) and the tentpole properties: checkpoint restore + re-run is
bitwise identical to an uninterrupted run, rollback after an injected
NaN converges to the clean result, and deadline pressure degrades
gracefully instead of failing.  The heavyweight fault sweep lives in
``tests/test_chaos_matrix.py`` (marked ``slow``).
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RTiModel, SimulationConfig
from repro.errors import (
    CommTimeoutError,
    CommunicationError,
    ConfigurationError,
    NumericalError,
    PlatformError,
    ReproError,
)
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.par.comm import run_ranks
from repro.resilience import (
    CheckpointRing,
    DeadlineSupervisor,
    FaultPlan,
    FaultSpec,
    HealthMonitor,
    RankCrashError,
    SimulatedClock,
    corrupt_state,
    drop_finest_level,
    nonfinite_blocks,
    run_resilient_forecast,
)
from repro.validation import FlatBathymetry


def nested_grid():
    return NestedGrid(
        [
            GridLevel(index=1, dx=300.0, blocks=[Block(0, 1, 0, 0, 30, 30)]),
            GridLevel(
                index=2, dx=100.0, blocks=[Block(1, 2, 30, 30, 30, 30)]
            ),
        ]
    )


def flat_grid():
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


def source():
    return GaussianSource(x0=4500.0, y0=4500.0, amplitude=1.0, sigma=1500.0)


def make_model(dt=1.0):
    model = RTiModel(
        nested_grid(),
        FlatBathymetry(50.0),
        SimulationConfig(dt=dt, boundary="wall"),
    )
    model.set_initial_condition(source())
    return model


def state_arrays(model):
    return {
        bid: (st.z_old.copy(), st.m_old.copy(), st.n_old.copy())
        for bid, st in model.states.items()
    }


def assert_states_identical(a, b):
    assert a.keys() == b.keys()
    for bid in a:
        for x, y in zip(a[bid], b[bid]):
            assert np.array_equal(x, y)


class TestFaultPlan:
    def test_random_is_deterministic(self):
        p1 = FaultPlan.random(42, n_faults=6, n_blocks=2)
        p2 = FaultPlan.random(42, n_faults=6, n_blocks=2)
        assert p1.to_dict() == p2.to_dict()
        assert p1.to_dict() != FaultPlan.random(43, n_faults=6).to_dict()

    def test_file_roundtrip(self, tmp_path):
        plan = FaultPlan.random(7, n_faults=5, n_blocks=3)
        path = tmp_path / "plan.json"
        plan.to_file(path)
        restored = FaultPlan.from_file(path)
        assert restored.to_dict() == plan.to_dict()
        assert restored.seed == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault-plan"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "nan", "step": 1, "typo": 1}]}
            )

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="bogus")
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="rank_crash")  # needs a rank
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="nan")  # needs a step
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="straggler", rank=0, factor=0.5)

    def test_one_shot_consumption(self):
        plan = FaultPlan([FaultSpec(kind="msg_drop", rank=0, op=3)])
        assert plan.comm_action(0, 2) is None
        assert plan.comm_action(1, 3) is None
        spec = plan.comm_action(0, 3)
        assert spec is not None and spec.kind == "msg_drop"
        assert plan.comm_action(0, 3) is None  # consumed
        assert plan.triggered_labels() == ["msg_drop rank=0 op=3"]

    def test_straggler_persists_across_ops(self):
        plan = FaultPlan(
            [FaultSpec(kind="straggler", rank=1, op=5, delay_s=0.0)]
        )
        assert plan.comm_action(1, 4) is None
        assert plan.comm_action(1, 5) is not None
        assert plan.comm_action(1, 6) is not None  # not consumed

    def test_straggler_factor_window(self):
        plan = FaultPlan(
            [FaultSpec(kind="straggler", rank=0, step=10, span=5, factor=3.0)]
        )
        assert plan.straggler_factor(9) == 1.0
        assert plan.straggler_factor(10) == 3.0
        assert plan.straggler_factor(14) == 3.0
        assert plan.straggler_factor(15) == 1.0


class TestCommTimeouts:
    """Satellites: configurable timeouts + rank ids on failures."""

    def test_recv_timeout_is_configurable_and_fast(self):
        def fn(comm):
            if comm.rank == 1:
                comm.recv(source=0)  # never sent
            return None

        t0 = time.monotonic()
        with pytest.raises(CommTimeoutError) as ei:
            run_ranks(2, fn, comm_timeout=0.2)
        assert time.monotonic() - t0 < 5.0  # not the old opaque 30 s
        assert ei.value.failed_rank == 1

    def test_rank_exception_carries_rank_id(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("boom on two")
            return comm.rank

        with pytest.raises(ValueError, match="boom") as ei:
            run_ranks(3, fn, comm_timeout=2.0)
        assert ei.value.failed_rank == 2

    def test_comm_timeout_error_is_communication_error(self):
        assert issubclass(CommTimeoutError, CommunicationError)


class TestFaultyCommInjection:
    def run_pair(self, plan, comm_timeout=1.0):
        from repro.resilience.inject import FaultyComm

        def fn(comm):
            if comm.rank == 0:
                comm.send("payload", dest=1, tag=9)
                return None
            return comm.recv(source=0, tag=9)

        return run_ranks(
            2,
            fn,
            comm_timeout=comm_timeout,
            comm_wrap=lambda c: FaultyComm(c, plan),
        )

    def test_msg_drop_times_out_receiver(self):
        plan = FaultPlan([FaultSpec(kind="msg_drop", rank=0, op=0)])
        with pytest.raises(CommTimeoutError):
            self.run_pair(plan, comm_timeout=0.3)

    def test_rank_crash_raises_communication_error(self):
        plan = FaultPlan([FaultSpec(kind="rank_crash", rank=0, op=0)])
        with pytest.raises(CommunicationError):
            self.run_pair(plan, comm_timeout=0.5)

    def test_msg_delay_still_delivers(self):
        plan = FaultPlan(
            [FaultSpec(kind="msg_delay", rank=0, op=0, delay_s=0.01)]
        )
        assert self.run_pair(plan)[1] == "payload"

    def test_rank_crash_error_carries_rank(self):
        err = RankCrashError("dead", failed_rank=3)
        assert err.failed_rank == 3
        assert isinstance(err, CommunicationError)


class TestCheckpointRing:
    def test_restore_and_rerun_bitwise_identical(self):
        model = make_model()
        model.run(10)
        ring = CheckpointRing()
        ring.snapshot(model)
        model.run(10)
        expected = state_arrays(model)
        expected_zmax = {
            bid: acc.zmax.copy() for bid, acc in model.outputs.items()
        }
        ring.restore(model)
        assert model.step_count == 10
        model.run(10)
        assert_states_identical(state_arrays(model), expected)
        for bid, acc in model.outputs.items():
            assert np.array_equal(acc.zmax, expected_zmax[bid])

    @settings(max_examples=8, deadline=None)
    @given(n_before=st.integers(1, 12), n_after=st.integers(1, 12))
    def test_restore_rerun_property(self, n_before, n_after):
        model = make_model()
        model.run(n_before)
        ring = CheckpointRing()
        ring.snapshot(model)
        model.run(n_after)
        expected = state_arrays(model)
        ring.restore(model)
        model.run(n_after)
        assert_states_identical(state_arrays(model), expected)

    def test_refuses_to_checkpoint_nan(self):
        model = make_model()
        model.run(3)
        corrupt_state(model.states, FaultSpec(kind="nan", step=3, block=0))
        assert nonfinite_blocks(model.states) == [0]
        with pytest.raises(NumericalError, match="refusing to checkpoint"):
            CheckpointRing().snapshot(model)

    def test_restore_rewinds_dt(self):
        from dataclasses import replace

        model = make_model(dt=1.0)
        model.run(2)
        ring = CheckpointRing()
        ring.snapshot(model)
        model.config = replace(model.config, dt=0.25)
        ring.restore(model)
        assert model.config.dt == 1.0

    def test_block_set_mismatch_rejected(self):
        model = make_model()
        ring = CheckpointRing()
        ring.snapshot(model)
        degraded = drop_finest_level(model)
        with pytest.raises(ReproError, match="block set"):
            ring.restore(degraded)

    def test_capacity_eviction(self):
        model = make_model()
        ring = CheckpointRing(capacity=2)
        for _ in range(4):
            model.run(1)
            ring.snapshot(model)
        assert len(ring) == 2
        assert ring.taken == 4
        assert ring.latest.step == model.step_count

    def test_empty_restore_rejected(self):
        with pytest.raises(ReproError, match="no checkpoint"):
            CheckpointRing().restore(make_model())


class TestHealthMonitor:
    def test_detects_nonfinite(self):
        model = make_model()
        model.run(2)
        corrupt_state(
            model.states, FaultSpec(kind="nan", step=2, block=1, field="m")
        )
        with pytest.raises(NumericalError, match="non-finite"):
            HealthMonitor().check(model)

    def test_detects_blowup(self):
        model = make_model()
        model.run(2)
        model.states[0].z_old[10, 10] = 5_000.0
        with pytest.raises(NumericalError, match="blow-up"):
            HealthMonitor(eta_limit=100.0).check(model)

    def test_detects_cfl_violation(self):
        # dt=3.0 passes the construction-time CFL check for still water
        # (sqrt(2*g*50)*3/100 = 0.94), but a 25 m surge raises the total
        # depth enough to erode the margin past 1.
        model = make_model(dt=3.0)
        model.states[1].z_old[...] += 25.0
        with pytest.raises(NumericalError, match="CFL"):
            HealthMonitor().check(model)

    def test_cadence(self):
        model = make_model()
        monitor = HealthMonitor(every=5)
        model.run(10, monitor=monitor)
        assert monitor.checks_run == 2

    def test_clean_state_passes(self):
        model = make_model()
        model.run(5)
        HealthMonitor(mass_tol=0.05).check(model)


class TestRollbackRecovery:
    def test_nan_rollback_converges_bitwise(self):
        clean = run_resilient_forecast(
            nested_grid(), FlatBathymetry(50.0),
            config=SimulationConfig(dt=1.0, boundary="wall"),
            source=source(), horizon_s=60.0,
        )
        plan = FaultPlan(
            [FaultSpec(kind="nan", step=33, block=1, field="z")]
        )
        faulty = run_resilient_forecast(
            nested_grid(), FlatBathymetry(50.0),
            config=SimulationConfig(dt=1.0, boundary="wall"),
            source=source(), horizon_s=60.0, fault_plan=plan,
        )
        assert clean.complete and faulty.complete
        assert faulty.rollbacks >= 1
        assert plan.triggered_labels() == ["nan step=33 z[block 1]"]
        assert_states_identical(
            state_arrays(faulty.model), state_arrays(clean.model)
        )

    @settings(max_examples=6, deadline=None)
    @given(step=st.integers(5, 55), field=st.sampled_from(["z", "m", "n"]))
    def test_rollback_property(self, step, field):
        plan = FaultPlan(
            [FaultSpec(kind="nan", step=step, block=0, field=field)]
        )
        report = run_resilient_forecast(
            nested_grid(), FlatBathymetry(50.0),
            config=SimulationConfig(dt=1.0, boundary="wall"),
            source=source(), horizon_s=60.0, fault_plan=plan,
        )
        assert report.complete
        assert report.rollbacks >= 1
        assert nonfinite_blocks(report.model.states) == []

    def test_unrecoverable_corruption_aborts_explicitly(self):
        # A fault at every step exhausts the rollback budget; the run
        # must end degraded, not hang or raise.
        plan = FaultPlan(
            [
                FaultSpec(kind="nan", step=s, block=0, field="z")
                for s in range(1, 40)
            ]
        )
        report = run_resilient_forecast(
            nested_grid(), FlatBathymetry(50.0),
            config=SimulationConfig(dt=1.0, boundary="wall"),
            source=source(), horizon_s=60.0, fault_plan=plan,
            max_rollbacks=3,
        )
        assert report.degraded
        assert any(
            ev.kind == "recovery_abort" for ev in report.recoveries
        )

    def test_an_untraced_rollback_is_metered(self):
        """One metering rule: a recovery action moves its counter whether
        or not the run is traced, as a degradation always has."""
        import repro.obs as obs
        from repro.obs.metrics import get_registry

        obs.disable()
        counter = get_registry().counter(
            "repro_recovery_actions_total", labels={"kind": "rollback"}
        )
        before = counter.value
        report = run_resilient_forecast(
            nested_grid(), FlatBathymetry(50.0),
            config=SimulationConfig(dt=1.0, boundary="wall"),
            source=source(), horizon_s=60.0,
            fault_plan=FaultPlan(
                [FaultSpec(kind="nan", step=33, block=1, field="z")]
            ),
        )
        assert report.rollbacks == 1
        assert counter.value - before == 1


class TestDeadlineDegradation:
    def test_supervisor_validation(self):
        from repro.errors import DeadlineError

        with pytest.raises(DeadlineError):
            DeadlineSupervisor(0.0)
        with pytest.raises(DeadlineError):
            DeadlineSupervisor(10.0, margin=1.5)

    def test_overrun_projection(self):
        sup = DeadlineSupervisor(100.0, margin=0.9)
        assert not sup.overrun(elapsed_s=10.0, steps_left=10, step_cost_s=1)
        assert sup.overrun(elapsed_s=10.0, steps_left=100, step_cost_s=1)

    def test_action_ladder(self):
        sup = DeadlineSupervisor(1.0)
        assert sup.next_action(True, True) == "drop_level"
        assert sup.next_action(False, True) == "coarsen_output"
        assert sup.next_action(False, False) == "finish_early"

    def test_tight_deadline_degrades_but_produces(self):
        plan = FaultPlan(
            [
                FaultSpec(
                    kind="straggler", rank=0, step=5, span=100, factor=50.0
                )
            ]
        )
        report = run_resilient_forecast(
            nested_grid(), FlatBathymetry(50.0),
            config=SimulationConfig(dt=1.0, boundary="wall"),
            source=source(), horizon_s=60.0, fault_plan=plan,
            deadline_s=0.05,
        )
        assert report.degraded
        actions = [ev.kind for ev in report.degradations]
        assert actions[0] == "drop_level"
        assert report.n_levels_final < report.n_levels_initial
        assert report.achieved_s > 0  # a forecast was still produced
        assert np.isfinite(report.max_eta)
        # Degradations must be attributable to the injected fault.
        assert any("straggler" in lbl for lbl in plan.triggered_labels())

    def test_generous_deadline_stays_complete(self):
        report = run_resilient_forecast(
            nested_grid(), FlatBathymetry(50.0),
            config=SimulationConfig(dt=1.0, boundary="wall"),
            source=source(), horizon_s=30.0, deadline_s=3600.0,
        )
        assert report.complete
        assert report.degradations == []
        assert report.n_levels_final == report.n_levels_initial

    def test_full_ladder_is_journaled_and_metered(self, tmp_path):
        """An impossible deadline walks the whole ladder — drop-level,
        coarsen-output, finish-early — and every degradation record is
        both journaled (write-ahead, via the RunStore) and metered
        (``repro_degradations_total{action}``)."""
        from repro.obs.metrics import get_registry
        from repro.persist import RunStore
        from repro.resilience.deadline import DEGRADATION_ORDER

        store = RunStore(tmp_path / "run")
        reg = get_registry()
        before = {
            action: reg.counter(
                "repro_degradations_total", labels={"action": action}
            ).value
            for action in DEGRADATION_ORDER
        }
        report = run_resilient_forecast(
            nested_grid(), FlatBathymetry(50.0),
            config=SimulationConfig(dt=1.0, boundary="wall"),
            source=source(), horizon_s=120.0, deadline_s=1e-4,
            store=store,
        )
        assert report.degraded
        actions = [ev.kind for ev in report.degradations]
        for action in DEGRADATION_ORDER:
            assert action in actions
        # Severity order: each action's first use follows the ladder.
        first_use = [actions.index(a) for a in DEGRADATION_ORDER]
        assert first_use == sorted(first_use)
        # Every event was journaled write-ahead, in the same order,
        # with the action and a human-readable detail.
        journaled = [
            ev for ev in store.events() if ev.get("event") == "degradation"
        ]
        assert [ev["action"] for ev in journaled] == actions
        assert all(ev.get("detail") for ev in journaled)
        assert all("deadline_s" in ev for ev in journaled)
        # Every event was metered, traced or not.
        for action in DEGRADATION_ORDER:
            delta = (
                reg.counter(
                    "repro_degradations_total", labels={"action": action}
                ).value
                - before[action]
            )
            assert delta == actions.count(action)
            assert delta >= 1


class TestDropFinestLevel:
    def test_state_carried_bitwise(self):
        model = make_model()
        model.run(5)
        before = state_arrays(model)
        degraded = drop_finest_level(model)
        assert degraded.grid.n_levels == 1
        assert degraded.time == model.time
        assert degraded.step_count == model.step_count
        for bid, st_d in degraded.states.items():
            z, m, n = before[bid]
            assert np.array_equal(st_d.z_old, z)
            assert np.array_equal(st_d.m_old, m)
            assert np.array_equal(st_d.n_old, n)
        for bid, acc in degraded.outputs.items():
            carried = acc.product_arrays()
            for key, src in model.outputs[bid].product_arrays().items():
                assert carried[key].tobytes() == src.tobytes(), (bid, key)

    def test_cannot_drop_only_level(self):
        model = RTiModel(
            flat_grid(), FlatBathymetry(50.0),
            SimulationConfig(dt=1.0, boundary="wall"),
        )
        with pytest.raises(NumericalError, match="only grid level"):
            drop_finest_level(model)


class TestSimulatedClock:
    def test_straggler_slows_step_cost(self):
        model = make_model()
        clock = SimulatedClock()
        base = clock.step_cost_us(model, slowdown=1.0)
        slow = clock.step_cost_us(model, slowdown=4.0)
        assert slow > 2.0 * base

    def test_invalid_slowdown_rejected(self):
        from repro.hw import get_system
        from repro.hw.streams import StreamSimulator

        platform = get_system("squid-gpu").platform
        with pytest.raises(PlatformError):
            StreamSimulator(platform, n_queues=2, slowdown=0.0)

    def test_charge_step_advances_elapsed(self):
        model = make_model()
        clock = SimulatedClock()
        assert clock.elapsed_s == 0.0
        clock.charge_step(model, slowdown=1.0)
        assert clock.elapsed_s > 0.0
