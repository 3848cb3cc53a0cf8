"""The strip team (``repro.core.scratch.each_strip``): no clock anywhere.

A kernel call of two or more row strips is shared between the caller and
parked helper threads.  Whoever runs which strip the result is the same
array, bit for bit; a helper's failure is the caller's; a busy team is not
waited for; the team goes away when asked and is back when needed; a fork
starts without one; and the workloads whose blocks are one strip never
start a thread.
"""

import contextlib
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core import SimulationConfig, scratch
from repro.core.mass import nlmass
from repro.core.momentum import nlmnt2
from repro.core.outputs import OutputAccumulator
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.grid.staggered import NGHOST
from repro.obs import trace as obstrace
from repro.obs.export import chrome_trace_events
from repro.obs.inspect import team_busy
from repro.par.decomposition import equal_cell_assignment
from repro.par.driver import run_distributed
from repro.topo import build_mini_kochi
from repro.validation import SlopedBathymetry

from tests.test_kernels_bitwise import DT, DX, MANNING, random_state

G = NGHOST
WAIT_S = 30.0  # every wait in here ends long before; a hang becomes a failure


@contextlib.contextmanager
def team_of(size, cap=None):
    """The next call of two or more strips forms a team of *size* members;
    strips hold at most *cap* elements.  (A context manager: Hypothesis
    reruns a test body, which a function-scoped fixture would not follow.)"""
    scratch.disband_team()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda _pid: set(range(size)))
        if cap:
            patch.setattr(scratch, "STRIP_ELEMENTS", cap)
        try:
            yield
        finally:
            scratch.disband_team()


def cuts(n):
    return [(i, i + 1, slice(None)) for i in range(n)]


def helpers():
    return [t for t in threading.enumerate() if t.name.startswith("strip-team-")]


def one_step(ny, nx, seed, dtype):
    """NLMASS, NLMNT2 and an output update on one random state: the whole
    padded arrays and all four products."""
    z, m, n, hz = random_state(ny, nx, seed, dtype)
    z1, m1, n1 = np.full_like(z, 7.0), np.full_like(m, 7.0), np.full_like(n, 7.0)
    nlmass(z, m, n, hz, DT, DX, out=z1)
    nlmnt2(z1, m, n, hz, DT, DX, MANNING, m1, n1)
    acc = OutputAccumulator(
        Block(0, 1, 0, 0, nx, ny), hz[G:-G, G:-G].astype(float),
        z[G:-G, G:-G].astype(float),
    )
    acc.update(z1, m1, n1, hz, time=3.0)
    return [z1, m1, n1, acc.zmax, acc.vmax, acc.inundation_max, acc.arrival_time]


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 40), st.integers(1, 40)),
    dtype=st.sampled_from([np.float64, np.float32]),
    cap=st.sampled_from([40, 150, 600]),
    seed=st.integers(0, 2**16),
)
def test_any_team_computes_what_one_member_computes(shape, dtype, cap, seed):
    with team_of(1, cap):
        alone = one_step(*shape, seed, dtype)
        assert not helpers()
        shared_out = len(scratch.strips(G, G + shape[0], shape[1] + 2 * G)) > 1
    for size in (2, 3):
        with team_of(size, cap):
            shared = one_step(*shape, seed, dtype)
            assert not shared_out or len(helpers()) == size - 1
        for a, b in zip(alone, shared):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_the_strips_of_one_call_really_are_shared():
    """Two members must each be inside a strip at once to pass the barrier."""
    both_inside = threading.Barrier(2)
    ran = []

    def body(lo, hi):
        if lo < 2:
            both_inside.wait(WAIT_S)
        ran.append((lo, threading.current_thread().name))

    with team_of(2):
        scratch.each_strip(body, cuts(7), "TEST")
    assert sorted(lo for lo, _ in ran) == list(range(7))
    assert {name for lo, name in ran if lo < 2} == {
        threading.current_thread().name, "strip-team-1",
    }


def test_a_team_of_one_and_a_single_strip_start_no_thread():
    ran = []
    with team_of(1):
        scratch.each_strip(lambda lo, hi: ran.append(lo), cuts(5), "TEST")
        assert ran == list(range(5)) and threading.active_count() == 1
    with team_of(3):
        scratch.each_strip(lambda lo, hi: ran.append(lo), cuts(1), "TEST")
        assert ran[5:] == [0] and threading.active_count() == 1


def test_a_helpers_exception_surfaces_in_the_caller_once_and_the_team_lives():
    caller = threading.current_thread()
    helper_failed = threading.Event()

    def body(lo, hi):
        if threading.current_thread() is caller:
            assert helper_failed.wait(WAIT_S)  # until the helper has a strip
        else:
            helper_failed.set()
            raise ZeroDivisionError(f"strip {lo}")

    ran = []
    with team_of(2):
        with pytest.raises(ZeroDivisionError, match="strip"):
            scratch.each_strip(body, cuts(9), "TEST")
        (helper,) = helpers()
        # The same parked helper serves the next call; nothing is raised twice.
        scratch.each_strip(lambda lo, hi: ran.append(lo), cuts(9), "TEST")
        assert sorted(ran) == list(range(9)) and helpers() == [helper]


def test_a_call_made_while_the_team_is_busy_walks_its_own_strips():
    holding, release = threading.Event(), threading.Event()

    def slow(lo, hi):
        holding.set()
        assert release.wait(WAIT_S)

    ran = []
    with team_of(2):
        first = threading.Thread(
            target=scratch.each_strip, args=(slow, cuts(2), "TEST")
        )
        first.start()
        try:
            assert holding.wait(WAIT_S)
            scratch.each_strip(
                lambda lo, hi: ran.append((lo, threading.current_thread().name)),
                cuts(6), "TEST",
            )
        finally:
            release.set()
            first.join(WAIT_S)
        assert not first.is_alive()
    assert ran == [(i, threading.current_thread().name) for i in range(6)]


def test_keyboard_interrupt_in_the_callers_share_leaves_no_helper_in_a_strip():
    caller = threading.current_thread()
    helper_inside, interrupted = threading.Event(), threading.Event()
    inside, ran = [], []

    def body(lo, hi):
        if threading.current_thread() is caller:
            assert helper_inside.wait(WAIT_S)
            interrupted.set()
            raise KeyboardInterrupt
        inside.append(lo)
        helper_inside.set()
        assert interrupted.wait(WAIT_S)
        ran.append(lo)

    with team_of(2):
        with pytest.raises(KeyboardInterrupt):
            scratch.each_strip(body, cuts(50), "TEST")
        # What the helper had started it finished before the call returned,
        # and the rest of the strips nobody walked.
        done = list(ran)
        assert inside == done and 1 <= len(done) < 49
        scratch.each_strip(lambda lo, hi: ran.append(lo), cuts(3), "TEST")
        assert sorted(ran[len(done):]) == [0, 1, 2]


def test_the_switch_interval_is_lowered_inside_a_team_call_only():
    import sys

    before, seen = sys.getswitchinterval(), []
    with team_of(2):
        scratch.each_strip(
            lambda lo, hi: seen.append(sys.getswitchinterval()), cuts(4), "TEST"
        )
        with pytest.raises(ZeroDivisionError):
            scratch.each_strip(lambda lo, hi: 1 // 0, cuts(4), "TEST")
    assert max(seen) <= scratch.TEAM_SWITCH_S + 1e-9 < before
    assert sys.getswitchinterval() == before


def test_disband_joins_the_helpers_and_the_next_call_forms_the_team_again():
    scratch.disband_team()  # with no team: nothing to do
    with team_of(3):
        scratch.each_strip(lambda lo, hi: None, cuts(4), "TEST")
        first = helpers()
        assert len(first) == 2 and threading.active_count() == 3
        scratch.disband_team()
        assert threading.active_count() == 1
        assert not any(t.is_alive() for t in first)
        scratch.each_strip(lambda lo, hi: None, cuts(4), "TEST")
        assert len(helpers()) == 2 and not set(helpers()) & set(first)


def test_a_process_sharing_the_cpus_sizes_its_team_from_its_share(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(6)))

    def team_size():
        scratch.each_strip(lambda lo, hi: None, cuts(2), "TEST")
        return len(helpers()) + 1

    assert team_size() == scratch.TEAM_MAX == 4
    scratch.disband_team(cpu_share=2)  # as run_distributed does before it forks
    assert team_size() == 3
    scratch.disband_team(cpu_share=8)
    assert team_size() == 1
    scratch.disband_team()  # ... and when its ranks are back
    assert team_size() == 4


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_has_no_team_and_forms_its_own():
    with team_of(2):
        scratch.each_strip(lambda lo, hi: None, cuts(3), "TEST")
        assert len(helpers()) == 1
        pid = os.fork()
        if pid == 0:  # the child: report through the exit status only
            status = 1
            try:
                ran = []
                ok = scratch._TEAM is None and threading.active_count() == 1
                scratch.each_strip(lambda lo, hi: ran.append(lo), cuts(5), "TEST")
                ok &= sorted(ran) == list(range(5)) and len(helpers()) == 1
                status = 0 if ok else 2
            finally:
                os._exit(status)
        assert os.waitpid(pid, 0) == (pid, 0)
        assert len(helpers()) == 1  # the parent's team is as it was


def test_every_strip_runs_exactly_once_under_contention():
    """More members than CPUs, many short calls back to back: a strip
    claimed twice, or never, shows in the tally."""
    tally = np.zeros(11, int)

    def body(lo, hi):
        tally[lo:hi] += 1

    with team_of(4):
        for _ in range(300):
            scratch.each_strip(body, cuts(11), "TEST")
    assert (tally == 300).all()


# ---------------------------------------------------------------------------
# Observability: the two lanes of a shared call
# ---------------------------------------------------------------------------


@pytest.fixture
def traced():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def test_a_traced_team_call_is_one_span_per_member_under_the_kernel_span(traced):
    z, m, n, hz = random_state(40, 30, seed=3)
    out = np.empty_like(z)
    n_strips = len(scratch._strips(G, G + 40, 30 + 2 * G, 150))
    obs.enable()
    with team_of(2, cap=150), obs.context(obstrace.TraceContext("t")):
        with obstrace.span("NLMASS.kernel", cells=1200):
            nlmass(z, m, n, hz, DT, DX, out=out)
    spans = obs.get_tracer().export()
    (kernel,) = (s for s in spans if s["name"] == "NLMASS.kernel")
    team = [s for s in spans if s["cat"] == "team"]
    assert [s["name"] for s in team] == ["NLMASS.strips"] * 2
    assert sorted(s["args"]["member"] for s in team) == [0, 1]
    assert sum(s["args"]["strips"] for s in team) == n_strips > 2
    assert {s["parent_id"] for s in team} == {kernel["span_id"]}
    # Two lanes: the caller's share on the caller's track, the helper's on
    # its own, in the Chrome trace too.
    caller, helper = sorted(team, key=lambda s: s["args"]["member"])
    assert caller["tid"] == kernel["tid"] == threading.get_ident() != helper["tid"]
    lanes = {
        ev["args"]["member"]: ev["tid"]
        for ev in chrome_trace_events(spans) if ev["cat"] == "team"
    }
    assert lanes[0] != lanes[1]
    busy = team_busy(spans)
    assert set(busy) == {"NLMASS"} and set(busy["NLMASS"]) == {0, 1}
    assert 0.0 < busy["NLMASS"][0] <= 1.0 and 0.0 <= busy["NLMASS"][1] <= 1.0


def test_a_traced_step_hangs_each_kernels_strips_under_its_kernel_span(traced):
    """OUTPUT like the other two: ``team_busy`` needs no phase span to fall
    back on, and ``balance.calibrate`` has its cells."""
    from repro.core import loopnest
    from tests.test_scratch_arena import beach_model

    model = beach_model(30, 40)
    obs.enable()
    with team_of(2, cap=150), obs.context(obstrace.TraceContext("t")):
        model.step()
    spans = obs.get_tracer().export()
    for kernel in ("NLMASS", "NLMNT2", "OUTPUT"):
        (call,) = (s for s in spans if s["name"] == kernel + ".kernel")
        assert call["args"] == {"cells": 1200, "executor": loopnest.choice().executor}
        shares = [s for s in spans if s["name"] == kernel + ".strips"]
        assert shares and {s["parent_id"] for s in shares} == {call["span_id"]}
    busy = team_busy(spans)
    assert set(busy) == {"NLMASS", "NLMNT2", "OUTPUT"}
    assert all(0.0 < per[0] <= 1.0 for per in busy.values())


def test_an_untraced_team_call_builds_no_span(traced, monkeypatch):
    built = []
    monkeypatch.setattr(
        obstrace.Span, "__init__", lambda self, *a, **kw: built.append(a)
    )
    with team_of(2):
        scratch.each_strip(lambda lo, hi: None, cuts(6), "TEST")
    assert built == [] and obs.get_tracer().spans() == []


# ---------------------------------------------------------------------------
# One-strip workloads: nothing changes for them, not even a thread
# ---------------------------------------------------------------------------


@pytest.fixture
def thread_starts(monkeypatch):
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


def test_a_mini_kochi_forecast_starts_no_thread(thread_starts):
    from repro.resilience.forecast import run_resilient_forecast

    mk = build_mini_kochi()
    report = run_resilient_forecast(
        mk.grid, mk.bathymetry, config=SimulationConfig(dt=mk.dt),
        source=GaussianSource(x0=4e3, y0=16e3, amplitude=2.0, sigma=2.5e3),
        horizon_s=10 * mk.dt,
    )
    assert report.status == "complete"
    assert thread_starts == [] and threading.active_count() == 1


def test_a_forked_two_rank_mosaic_starts_no_thread(
    thread_starts, rank_processes, monkeypatch
):
    from repro.par import driver

    nb = 128  # the ledger's mosaic_2rank: 4 x 2 blocks of 128 x 128, one strip each
    assert len(scratch.strips(G, G + nb, nb + 2 * G)) == 1
    shares, run_ranks = [], driver.run_ranks
    monkeypatch.setattr(
        driver, "run_ranks",
        lambda *a, **kw: shares.append(scratch._CPU_SHARE) or run_ranks(*a, **kw),
    )
    grid = NestedGrid([GridLevel(index=1, dx=100.0, blocks=[
        Block(4 * j + i, 1, i * nb, j * nb, nb, nb)
        for j in range(2) for i in range(4)
    ])])
    eta = run_distributed(
        grid, SlopedBathymetry(100.0, 100.0 / (0.9 * 2 * nb * 100.0)),
        SimulationConfig(dt=0.5, boundary="wall"),
        equal_cell_assignment(grid, 2, split_blocks=False),
        GaussianSource(x0=25_600.0, y0=8_500.0, amplitude=1.0, sigma=2_000.0),
        n_steps=2,
    )
    assert len(eta) == 8 and rank_processes == [(2, rank_processes[0][1])]
    assert thread_starts == [] and threading.active_count() == 1
    # Forked while the CPUs counted as shared by two; the launcher's next
    # team has them all again.
    assert shares == [2] and scratch._CPU_SHARE == 1


def test_a_service_request_starts_no_thread(thread_starts):
    from repro.service.backend import LocalBackend
    from repro.service.clock import VirtualClock
    from repro.service.request import ForecastRequest
    from repro.service.service import ForecastService

    mk = build_mini_kochi()
    service = ForecastService(LocalBackend(), clock=VirtualClock())
    ticket = service.submit(ForecastRequest(
        scenario={
            "grid": "mini-kochi", "dt": mk.dt, "n_steps": 5,
            "source": {"type": "gaussian", "x0": 4e3, "y0": 16e3,
                       "amplitude": 2.0, "sigma": 2.5e3},
        },
        deadline_s=600.0,
    ))
    service.run_until_idle()
    assert ticket.result is not None
    assert thread_starts == [] and threading.active_count() == 1
