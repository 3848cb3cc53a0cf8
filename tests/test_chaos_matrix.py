"""Chaos matrix: seeded fault scenarios against the resilience layer.

The acceptance criterion for the resilience tentpole: across 20+ seeded
random fault scenarios, **every** run either completes or degrades
explicitly — zero hangs, zero unhandled exceptions — and the recorded
degradations/recoveries are attributable to the injected faults.

Two sweeps mirror the two injection surfaces:

* the **forecast surface** (NaN corruption + hardware stragglers)
  through :func:`run_resilient_forecast`, half of the scenarios under a
  tight deadline;
* the **transport surface** (rank crashes, message drops/delays)
  through :func:`survivable_run_distributed`, which must return the
  bitwise single-process answer no matter what the transport does.

Marked ``slow``: run with ``pytest -m slow``.
"""

import numpy as np
import pytest

from repro.core import RTiModel, SimulationConfig
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.par.decomposition import equal_cell_assignment
from repro.resilience import (
    FaultPlan,
    SurvivalConfig,
    nonfinite_blocks,
    run_resilient_forecast,
    survivable_run_distributed,
)
from repro.validation import FlatBathymetry

pytestmark = pytest.mark.slow

HORIZON_S = 40.0
N_STEPS_DIST = 10


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


def config():
    return SimulationConfig(dt=1.0, boundary="wall")


# -- forecast surface: NaN corruption + stragglers (12 scenarios) --------

FORECAST_SEEDS = list(range(12))


@pytest.mark.parametrize("seed", FORECAST_SEEDS)
def test_forecast_surface_chaos(seed):
    plan = FaultPlan.random(
        seed,
        kinds=("nan", "straggler"),
        n_faults=4,
        n_ranks=1,
        n_steps=int(HORIZON_S),
        n_blocks=2,
    )
    deadline = 0.2 if seed % 2 else None  # half the matrix under pressure
    report = run_resilient_forecast(
        nested_grid(),
        FlatBathymetry(50.0),
        config=config(),
        source=source(),
        horizon_s=HORIZON_S,
        fault_plan=plan,
        deadline_s=deadline,
    )

    # Invariant 1: a report is always produced, complete or degraded.
    assert report.status in ("complete", "degraded")
    assert report.achieved_s <= HORIZON_S + 1e-9

    # Invariant 2: no corruption leaks into the products.
    assert nonfinite_blocks(report.model.states) == []
    assert np.isfinite(report.max_eta)
    assert np.isfinite(report.max_speed)

    # Invariant 3: every recovery/degradation is attributable.
    triggered = plan.triggered_labels()
    if report.rollbacks:
        assert any("nan" in lbl for lbl in triggered), (
            f"rollbacks without a triggered nan fault: {triggered}"
        )
    if report.degradations:
        assert deadline is not None, "degraded without a deadline"
    if report.degraded:
        assert (
            report.degradations
            or any(ev.kind == "recovery_abort" for ev in report.recoveries)
            or report.achieved_s < HORIZON_S
        )

    # Invariant 4: the report is honest about fidelity.
    if deadline is None:
        assert report.n_levels_final == report.n_levels_initial


# -- transport surface: crashes, drops, delays (8 scenarios) -------------

DIST_SEEDS = list(range(100, 108))


def reference_run():
    model = RTiModel(flat_grid(), FlatBathymetry(50.0), config())
    model.set_initial_condition(source())
    model.run(N_STEPS_DIST)
    return {
        bid: st.eta_interior().copy() for bid, st in model.states.items()
    }


@pytest.mark.parametrize("seed", DIST_SEEDS)
def test_transport_surface_chaos(seed):
    grid = flat_grid()
    plan = FaultPlan.random(
        seed,
        kinds=("rank_crash", "msg_drop", "msg_delay"),
        n_faults=3,
        n_ranks=2,
        n_steps=N_STEPS_DIST,
    )
    decomp = equal_cell_assignment(grid, 2, split_blocks=False)
    out, report = survivable_run_distributed(
        grid,
        FlatBathymetry(50.0),
        config(),
        decomp,
        source(),
        N_STEPS_DIST,
        survival=SurvivalConfig(checkpoint_every=4),
        fault_plan=plan,
        timeout=120.0,
        comm_timeout=0.8,
    )

    # Invariant 1: the physics survives the transport chaos bitwise.
    ref = reference_run()
    assert out.keys() == ref.keys()
    for bid in ref:
        assert np.array_equal(out[bid], ref[bid]), f"block {bid} diverged"

    # Invariant 2: recovery only in response to real faults — failures
    # and epoch retries need a fired rank_crash or msg_drop, and delays
    # alone leave the first incarnation the only one.
    fatal = [
        f for f in plan.triggered if f.kind in ("rank_crash", "msg_drop")
    ]
    if report.rank_failures or report.epoch_retries:
        assert fatal, f"{report.summary()} without a fatal comm fault"
    if not fatal:
        assert len(report.incarnations) == 1, report.summary()
        assert not report.breaker_tripped


# -- survival surface: phase-targeted crashes (10 scenarios) --------------
#
# The in-flight survival tentpole: a rank dies *inside* a specific
# communication phase — mid halo-exchange or mid checkpoint-replication
# — and the run must still complete within a wall-clock deadline via
# shrink or spare-rank respawn, bitwise identical to the failure-free
# reference.  Each seed varies the victim rank and how deep into the run
# (send-op count) the crash lands.

SURVIVE_N_STEPS = 16
SURVIVE_DEADLINE_S = 60.0
HALO_CRASH_SEEDS = list(range(200, 205))
CKPT_CRASH_SEEDS = list(range(300, 305))


def survive_grid():
    return NestedGrid(
        [
            GridLevel(
                index=1,
                dx=100.0,
                blocks=[
                    Block(0, 1, 0, 0, 16, 48),
                    Block(1, 1, 16, 0, 16, 48),
                    Block(2, 1, 32, 0, 16, 48),
                ],
            )
        ]
    )


def survive_reference():
    model = RTiModel(survive_grid(), FlatBathymetry(50.0), config())
    model.set_initial_condition(source())
    model.run(SURVIVE_N_STEPS)
    return {
        bid: st.eta_interior().copy() for bid, st in model.states.items()
    }


def _phase_crash_scenario(seed, phase):
    import random as _random
    import time as _time

    from repro.resilience import FaultSpec, SurvivalConfig
    from repro.resilience.survive import survivable_run_distributed

    rng = _random.Random(seed)
    grid = survive_grid()
    plan = FaultPlan(
        [
            FaultSpec(
                kind="rank_crash",
                rank=rng.randrange(3),
                phase=phase,
                # Vary how deep into the run the crash lands: each step
                # issues several sends per rank, so spreading the op
                # threshold over [0, 60) covers early/mid/late deaths.
                op=rng.randrange(0, 60),
            )
        ],
        seed=seed,
    )
    spares = seed % 2  # alternate respawn- and shrink-shaped recoveries
    decomp = equal_cell_assignment(grid, 3, split_blocks=False)
    t0 = _time.monotonic()
    eta, report = survivable_run_distributed(
        grid,
        FlatBathymetry(50.0),
        config(),
        decomp,
        source(),
        SURVIVE_N_STEPS,
        survival=SurvivalConfig(
            checkpoint_every=4, spare_ranks=spares, max_rank_failures=3
        ),
        fault_plan=plan,
        timeout=120.0,
        comm_timeout=2.0,
    )
    elapsed = _time.monotonic() - t0

    # Invariant 1: recovery is fast enough to matter operationally.
    assert elapsed < SURVIVE_DEADLINE_S, (
        f"seed {seed}: recovery took {elapsed:.1f}s"
    )

    # Invariant 2: the answer is bitwise the failure-free one.
    ref = survive_reference()
    assert eta.keys() == ref.keys()
    for bid in ref:
        assert np.array_equal(eta[bid], ref[bid]), f"block {bid} diverged"

    # Invariant 3: the report attributes the recovery to the fault.
    if plan.triggered:
        assert report.rank_failures >= 1
        assert (
            report.respawns + report.shrinks >= 1
            or report.breaker_tripped
        ), f"seed {seed}: crash fired but no recovery action recorded"
        if spares:
            assert report.respawns >= 1, (
                f"seed {seed}: spare available but not used"
            )
    else:
        # An op threshold past the run's total send count: clean run.
        assert report.rank_failures == 0
        assert len(report.incarnations) == 1


@pytest.mark.parametrize("seed", HALO_CRASH_SEEDS)
def test_crash_during_halo_exchange(seed):
    _phase_crash_scenario(seed, "halo")


@pytest.mark.parametrize("seed", CKPT_CRASH_SEEDS)
def test_crash_during_checkpoint_replication(seed):
    _phase_crash_scenario(seed, "ckpt")


# -- SDC surface: silent bit flips (20 scenarios) --------------------------
#
# The integrity tentpole's acceptance gate: across 20+ seeded bit-flip
# scenarios against state arrays, checkpoint buffers, and halo payloads,
# every injected corruption is either *corrected* (bitwise-identical
# final answer) or flagged with an explicit ``corrupted`` verdict —
# never a silent completion with a wrong answer.

SDC_FORECAST_SEEDS = list(range(400, 412))
SDC_HALO_SEEDS = list(range(500, 508))

_sdc_reference_cache: dict = {}


def sdc_forecast_reference():
    """Clean-run eta fields, integrity layer armed (seeded flips off)."""
    if "forecast" not in _sdc_reference_cache:
        report = run_resilient_forecast(
            nested_grid(),
            FlatBathymetry(50.0),
            config=config(),
            source=source(),
            horizon_s=HORIZON_S,
            integrity_every=1,
            scrub_every=8,
        )
        _sdc_reference_cache["forecast"] = {
            bid: st.eta_interior().copy()
            for bid, st in report.model.states.items()
        }
    return _sdc_reference_cache["forecast"]


@pytest.mark.parametrize("seed", SDC_FORECAST_SEEDS)
def test_sdc_forecast_surface(seed):
    from repro.resilience import INTEGRITY_VERDICTS

    plan = FaultPlan.random(
        seed,
        kinds=("bitflip",),
        n_faults=3,
        n_ranks=1,
        n_steps=int(HORIZON_S),
        n_blocks=2,
    )
    report = run_resilient_forecast(
        nested_grid(),
        FlatBathymetry(50.0),
        config=config(),
        source=source(),
        horizon_s=HORIZON_S,
        fault_plan=plan,
        integrity_every=1,
        scrub_every=8,
    )

    # Invariant 1: a report with an adjudicated verdict, always.
    assert report.status == "complete"
    assert report.integrity_verdict in INTEGRITY_VERDICTS

    # Invariant 2: every *triggered* state/checkpoint flip is seen.
    hit = [
        f for f in plan.triggered
        if f.kind == "bitflip" and f.target in ("state", "checkpoint")
    ]
    if hit:
        assert report.integrity_verdict != "clean", (
            f"seed {seed}: {len(hit)} flip(s) fired but verdict is clean"
        )

    # Invariant 3: zero silent completions.  Unless the run *declared*
    # itself corrupted, the answer must be bitwise the clean one.
    if report.integrity_verdict != "corrupted":
        ref = sdc_forecast_reference()
        out = {
            bid: st.eta_interior()
            for bid, st in report.model.states.items()
        }
        for bid in ref:
            assert np.array_equal(out[bid], ref[bid]), (
                f"seed {seed}: block {bid} differs under verdict "
                f"{report.integrity_verdict!r} — silent corruption"
            )

    # Invariant 4: corrections are attributable to injected flips.
    corrections = report.integrity["corrections"]
    if sum(corrections.values()) and not plan.triggered:
        raise AssertionError(
            f"seed {seed}: corrections {corrections} without a fault"
        )


@pytest.mark.parametrize("seed", SDC_HALO_SEEDS)
def test_sdc_halo_surface(seed):
    import random as _random

    from repro.par.driver import run_distributed
    from repro.resilience import FaultSpec, MessageIntegrity

    rng = _random.Random(seed)
    plan = FaultPlan(
        [
            FaultSpec(
                kind="bitflip",
                target="halo",
                rank=rng.randrange(2),
                op=rng.randrange(0, 24),
                bit=rng.randrange(0, 16),
            )
        ],
        seed=seed,
    )
    integrity = MessageIntegrity(plan=plan)
    grid = flat_grid()
    decomp = equal_cell_assignment(grid, 2, split_blocks=False)
    out = run_distributed(
        grid,
        FlatBathymetry(50.0),
        config(),
        decomp,
        source(),
        N_STEPS_DIST,
        integrity=integrity,
    )

    # Invariant 1: the wire flip never reaches the physics — the CRC
    # catches it and the retransmit copy restores the clean payload.
    ref = reference_run()
    assert out.keys() == ref.keys()
    for bid in ref:
        assert np.array_equal(out[bid], ref[bid]), (
            f"seed {seed}: block {bid} diverged through a halo flip"
        )

    # Invariant 2: a triggered flip is detected + corrected, a clean
    # run stays clean — no phantom detections.
    if plan.triggered:
        assert integrity.tracker.verdict == "corrected"
        assert integrity.tracker.retransmits >= 1
        assert integrity.tracker.detections.get("halo", 0) >= 1
    else:
        assert integrity.tracker.verdict == "clean"
        assert integrity.tracker.retransmits == 0
