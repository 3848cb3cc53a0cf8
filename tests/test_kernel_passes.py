"""A deterministic pass budget for NLMNT2, NLMASS and OUTPUT: counts, no clock.

The kernels run as flat offset arithmetic over one row pitch (DESIGN.md
§9b), so almost every ufunc pass streams 1-D contiguous memory.  Here the
NumPy the kernel modules see is wrapped (as ``tests/test_exchange_budget.py``
wraps the geometry builders) and every ufunc / ``copyto`` call is recorded
with its operands.  Per strip, for both passes, both dtypes, one strip and
many: no more calls than the 2-D-view bodies made (65 / 10), every operand
1-D and contiguous but for the documented strided passes, every result
written into the arena or the caller's ``out``; and, unrecorded, a call
allocates no array.  The budgets hold *per member* of the strip team
(``scratch.each_strip``), whichever thread took which strips: a member's
calls are counted against the strips it carved for, its destinations
looked up in its own arena.  ``OutputAccumulator.update`` walks 2-D views of
the physical cells, so its budget is the count alone: 25 passes a strip, each
written into the arena or a product.

Those are budgets of the NumPy bodies, so the ``recorder`` fixture pins the
NumPy executor.  The compiled nest (``repro.core.loopnest``) has its own, at
the end: per strip one nest call for NLMASS and for OUTPUT; for NLMNT2 — both
sweeps of a strip at once — two and one ``np.power`` (none when linear); no
ghost frame carried over in NumPy; nothing block-sized allocated; and on a
warm call — the same array objects again — nothing validated, no address
fetched, no scratch carved: the prepared call is found and launched.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.core import loopnest, mass, momentum, outputs, scratch
from repro.grid.block import Block
from repro.grid.staggered import NGHOST

from tests import executors
from tests.oracles import arena_nbytes
from tests.test_kernels_bitwise import DT, DX, MANNING, random_state
from tests.test_strip_team import helpers, team_of

G = NGHOST

#: ufunc/copyto calls one strip may make: what the 2-D-view bodies made.
MOMENTUM_CALLS, MASS_CALLS, OUTPUT_CALLS = 65, 10, 25
#: Of those, the ones allowed a strided operand.  NLMNT2: the copy of M to
#: the common pitch and the write of the finished faces.  NLMASS: the M
#: difference.  (The issue budgeted 3; the ghost frame is carried over once
#: per call by ``scratch.carry_over``, counted apart.)
MOMENTUM_STRIDED, MASS_STRIDED = 2, 1


class Recorder:
    """Stands in for ``np`` in a kernel module; records array passes, and
    who (which thread: a member of the strip team) made them."""

    def __init__(self):
        #: (name, [array operands], the written operand, thread, its arena)
        self.calls = []
        self.carved = []  # (thread, its arena's size after the carve) per strip
        self.carried = 0

    def __getattr__(self, name):
        return self.wrap(name, getattr(np, name))

    def wrap(self, name, fn):
        if not (isinstance(fn, np.ufunc) or fn is np.copyto):
            return fn

        def recorded(*args, **kwargs):
            written = args[0] if fn is np.copyto else kwargs.get("out")
            operands = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
            self.calls.append(
                (name, operands, written, threading.get_ident(), scratch._ARENA.buf)
            )
            return fn(*args, **kwargs)

        return recorded

    def carve(self, *args):
        views = scratch.carve(*args)
        self.carved.append((threading.get_ident(), arena_nbytes()))
        return views

    def carry_over(self, *args):
        self.carried += 1
        scratch.carry_over(*args)

    def forget(self, arenas=False):
        """Start counting again; the arena sizes seen so far stay, unless
        a new team (new threads, new arenas) is about to run."""
        del self.calls[:]
        if arenas:
            del self.carved[:]
        self.carried, self.first_run = 0, len(self.carved)

    def strided(self, member=None):
        return [
            name for name, operands, _, who, _ in self.calls
            if not all(a.ndim == 1 and a.flags.c_contiguous for a in operands)
            and member in (None, who)
        ]

    def assert_budget(self, calls, strided, n_strips, *out):
        """Per member: at most *calls* passes and exactly *strided* strided
        ones (None: not counted) per strip it took, every pass written into
        that member's arena or into one of *out*, and an arena that only grew
        for a larger strip: there
        are two strip sizes (the last is shorter), so two arena sizes at
        most — and one for a member that walked every strip itself."""
        taken = [who for who, _ in self.carved[self.first_run:]]
        assert len(taken) == n_strips
        for member in set(taken):
            mine = [c for c in self.calls if c[3] == member]
            assert len(mine) <= calls * taken.count(member)
            if strided is not None:
                assert len(self.strided(member)) == strided * taken.count(member)
            for name, _operands, written, _, arena in mine:
                assert written is not None, f"{name} allocated its result"
                assert any(np.shares_memory(written, a) for a in (arena, *out)), name
            sizes = [size for who, size in self.carved if who == member]
            assert sizes == sorted(sizes) and len(set(sizes)) <= 2
            if len({who for who, _ in self.carved}) == 1:  # it took them all
                assert len(set(sizes)) == 1
        assert {c[3] for c in self.calls} == set(taken)


@pytest.fixture
def recorder(monkeypatch, numpy_executor):
    rec = Recorder()
    for module in (momentum, mass, outputs, scratch):
        monkeypatch.setattr(module, "np", rec)
    monkeypatch.setattr(momentum, "_clip", rec.wrap("clip", momentum._clip))
    for module in (momentum, mass):
        monkeypatch.setattr(module, "carry_over", rec.carry_over)
    for module in (momentum, mass, outputs):
        monkeypatch.setattr(module, "carve", rec.carve)
    return rec


def run_twice_per_team(recorder, run):
    """*run* twice — the arenas grow in the first — alone and as a team of
    three; yields after each second run, for the caller's assertions."""
    for size in (1, 3):
        with team_of(size):
            recorder.forget(arenas=True)
            run()
            recorder.forget()
            run()
            yield size


def every_member_walks(body, cuts, kernel):
    """``each_strip`` for a warm-up: after the shared walk, every member of the
    team walks every strip, one member at a time.  Which strips a helper finds
    left in a shared walk is the scheduler's choice — none at all, often, on a
    box that serves its two CPUs as one — so only this leaves each arena grown
    to, and holding the views of, every strip its owner can meet later."""
    scratch.each_strip(body, cuts, kernel)  # forms the team
    members = 1 + len(helpers())
    if members == 1 or len(cuts) == 1:
        return
    gate, turn = threading.Barrier(members), threading.Lock()

    def walk_all(_lo, _hi):
        gate.wait(timeout=60)  # every member is in here, holding one ticket
        with turn:
            for lo, hi, _whole in cuts:
                body(lo, hi)

    scratch.each_strip(walk_all, [(k, k + 1, None) for k in range(members)], kernel)


def allocated_by(fn):
    """Peak bytes one call of *fn* allocates once every arena has seen it."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (momentum, mass, outputs):
            patch.setattr(module, "each_strip", every_member_walks)
        fn()
    tracemalloc.start()
    try:
        fn()  # tracemalloc's own bookkeeping warms here
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


CASES = [  # (ny, nx, strip cap or None for the shipped one)
    (37, 19, None),
    (19, 37, None),
    (50, 23, 300),  # many uneven strips
    (23, 50, 300),
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("transposed", [False, True], ids=["M", "N"])
@pytest.mark.parametrize("ny,nx,cap", CASES)
def test_momentum_pass_budget(monkeypatch, recorder, ny, nx, cap, transposed, dtype):
    if cap:
        monkeypatch.setattr(scratch, "STRIP_ELEMENTS", cap)
    z, m, n, hz = random_state(ny, nx, seed=5, dtype=dtype)
    if transposed:  # the N update, as nlmnt2 asks for it
        args, out = (z.T, n.T, m.T, hz.T), np.empty_like(n).T
        n_strips = len(scratch.strips(G, G + ny + 1, nx + 2 * G))
    else:
        args, out = (z, m, n, hz), np.empty_like(m)
        n_strips = len(scratch.strips(G, G + ny, nx + 2 * G))
    assert (n_strips > 2) == bool(cap)

    def run():
        momentum.momentum_core(*args, DT, DX, MANNING, out)

    for _team_size in run_twice_per_team(recorder, run):
        assert recorder.carried == 1
        recorder.assert_budget(MOMENTUM_CALLS, MOMENTUM_STRIDED, n_strips, out)
        assert set(recorder.strided()) == {"copyto"}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ny,nx,cap", CASES)
def test_mass_pass_budget(monkeypatch, recorder, ny, nx, cap, dtype):
    if cap:
        monkeypatch.setattr(scratch, "STRIP_ELEMENTS", cap)
    z, m, n, hz = random_state(ny, nx, seed=6, dtype=dtype)
    out = np.empty_like(z)
    n_strips = len(scratch.strips(G, G + ny, nx + 2 * G))
    assert (n_strips > 2) == bool(cap)

    def run():
        mass.nlmass(z, m, n, hz, DT, DX, out)

    for _team_size in run_twice_per_team(recorder, run):
        assert recorder.carried == 1
        recorder.assert_budget(MASS_CALLS, MASS_STRIDED, n_strips, out)
        assert set(recorder.strided()) == {"subtract"}


def accumulator_after_a_step(ny, nx, dtype, seed=6):
    """(an accumulator as ``RTiModel`` builds it, ``update``'s arguments)."""
    z, m, n, hz = random_state(ny, nx, seed, dtype)
    new = np.empty_like(z), np.empty_like(m), np.empty_like(n)
    mass.nlmass(z, m, n, hz, DT, DX, new[0])
    momentum.nlmnt2(new[0], m, n, hz, DT, DX, MANNING, new[1], new[2])
    acc = outputs.OutputAccumulator(Block(0, 1, 0, 0, nx, ny), hz[G:-G, G:-G], z[G:-G, G:-G])
    return acc, (*new, hz, 3.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ny,nx,cap", CASES)
def test_output_pass_budget(monkeypatch, recorder, ny, nx, cap, dtype):
    if cap:
        monkeypatch.setattr(scratch, "STRIP_ELEMENTS", cap)
    acc, state = accumulator_after_a_step(ny, nx, dtype)
    n_strips = len(scratch.strips(0, ny, nx))
    assert (n_strips > 2) == bool(cap)
    for _team_size in run_twice_per_team(recorder, lambda: acc.update(*state)):
        assert recorder.carried == 0
        recorder.assert_budget(OUTPUT_CALLS, None, n_strips, *acc.product_arrays().values())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cap", [None, 2000])
def test_a_kernel_call_allocates_no_array(monkeypatch, cap, dtype):
    """Unrecorded (the recorder keeps what it sees).  What is left is views,
    tuples and the two 8192-element buffers NumPy's iterator borrows for a
    strided pass: less than half a field of this block, in either dtype."""
    if cap:
        monkeypatch.setattr(scratch, "STRIP_ELEMENTS", cap)
    z, m, n, hz = random_state(300, 250, seed=9, dtype=dtype)
    out_z, out_m, out_n = np.empty_like(z), np.empty_like(m), np.empty_like(n)
    assert allocated_by(lambda: mass.nlmass(z, m, n, hz, DT, DX, out_z)) < z.nbytes // 2
    assert allocated_by(
        lambda: momentum.nlmnt2(z, m, n, hz, DT, DX, MANNING, out_m, out_n)
    ) < z.nbytes // 2


def test_linear_momentum_copies_nothing_it_does_not_read(recorder):
    """Without advection the N pass never needs M at the common pitch."""
    z, m, n, hz = random_state(20, 30, seed=7)
    out = np.empty_like(n)
    momentum.momentum_core(z.T, n.T, m.T, hz.T, DT, DX, MANNING, out.T, nonlinear=False)
    assert recorder.strided() == ["copyto"]  # the finished faces only


def test_a_non_contiguous_input_costs_one_more_strided_copy_each(recorder):
    z, m, n, hz = random_state(20, 30, seed=8)
    wide = np.zeros((z.shape[0], 2 * z.shape[1]))
    wide[:, ::2] = hz
    out = np.empty_like(m)
    momentum.momentum_core(z, m, n, wide[:, ::2], DT, DX, MANNING, out)
    assert recorder.strided() == ["copyto"] * (MOMENTUM_STRIDED + 1)


# ---------------------------------------------------------------------------
# The compiled executor's budget
# ---------------------------------------------------------------------------


@pytest.fixture
def nest_recorder(monkeypatch):
    """A recorder that also sees the nest's entry points called (by name, no
    operands), on the compiled executor; skips where there is none.  Its
    ``cold`` counts what only a call's first launch may do: validate and lay
    out (``_prepare``), fetch an address, carve scratch, check for aliasing."""
    rec = Recorder()
    rec.cold = []

    def wrap(name, fn):
        def recorded(*args):
            rec.calls.append((name, [], None, threading.get_ident(), None))
            return fn(*args)

        return recorded

    def cold(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: (rec.cold.append(name), fn(*args))[1])

    nests = executors.wrapped(executors.compiled_nests(), wrap)
    for module in (momentum, mass, outputs):
        monkeypatch.setattr(module, "np", rec)
    for module in (momentum, mass):
        monkeypatch.setattr(module, "carry_over", rec.carry_over)
        cold(module, "reject_aliasing")
    cold(loopnest, "_prepare")
    cold(loopnest, "_address")
    cold(scratch, "carve")
    with executors.on_nests(nests):
        yield rec


def calls_by_member(rec):
    by_member = {}
    for name, *_, who, _arena in rec.calls:
        by_member.setdefault(who, []).append(name)
    return by_member


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "linear"])
@pytest.mark.parametrize("ny,nx,cap", CASES)
def test_compiled_pass_budget(monkeypatch, nest_recorder, ny, nx, cap, nonlinear, dtype):
    if cap:
        monkeypatch.setattr(scratch, "STRIP_ELEMENTS", cap)
    z, m, n, hz = random_state(ny, nx, seed=5, dtype=dtype)
    out_z, out_m, out_n = np.empty_like(z), np.empty_like(m), np.empty_like(n)
    # Every kernel is cut over the cell rows; NLMNT2's last strip owns the N
    # face row beyond them.
    n_strips = len(scratch.strips(G, G + ny, nx + 2 * G))
    per_strip = ["faces", "power", "update"] if nonlinear else ["faces", "update"]

    for _team_size in run_twice_per_team(nest_recorder, lambda: mass.nlmass(
        z, m, n, hz, DT, DX, out_z
    )):
        assert sum(calls_by_member(nest_recorder).values(), []) == ["nlmass"] * n_strips
    for team_size in run_twice_per_team(nest_recorder, lambda: momentum.nlmnt2(
        out_z, m, n, hz, DT, DX, MANNING, out_m, out_n, nonlinear=nonlinear
    )):
        members = calls_by_member(nest_recorder)
        assert len(members) <= team_size
        for mine in members.values():  # whole strips, each its own calls in order
            assert mine == per_strip * (len(mine) // len(per_strip))
        assert sum(map(len, members.values())) == len(per_strip) * n_strips
    acc, state = accumulator_after_a_step(ny, nx, dtype)
    for team_size in run_twice_per_team(nest_recorder, lambda: acc.update(*state)):
        members = calls_by_member(nest_recorder)  # no ufunc: the nest alone
        assert len(members) <= team_size
        assert sum(members.values(), []) == ["output"] * len(scratch.strips(0, ny, nx))
    assert nest_recorder.carried == 0  # the ghost frames are the nest's


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "linear"])
def test_a_warm_compiled_call_only_launches(nest_recorder, nonlinear, dtype):
    """One strip, the caller alone: the second call on the same array objects
    is 1 / 2 / 1 foreign calls and at most one ufunc — counted, not timed."""
    z, m, n, hz = random_state(9, 7, seed=5, dtype=dtype)
    out_z, out_m, out_n = np.empty_like(z), np.empty_like(m), np.empty_like(n)
    acc, state = accumulator_after_a_step(9, 7, dtype)
    calls = {
        "nlmass": lambda: mass.nlmass(z, m, n, hz, DT, DX, out_z),
        "nlmnt2": lambda: momentum.nlmnt2(
            out_z, m, n, hz, DT, DX, MANNING, out_m, out_n, nonlinear=nonlinear
        ),
        "output": lambda: acc.update(*state),
    }
    launched = {
        "nlmass": ["nlmass"],
        "nlmnt2": ["faces", "power", "update"] if nonlinear else ["faces", "update"],
        "output": ["output"],
    }
    for kernel, call in calls.items():
        before = loopnest.provenance()
        call()
        assert "_prepare" in nest_recorder.cold and "_address" in nest_recorder.cold
        nest_recorder.forget()
        del nest_recorder.cold[:]
        call()
        call()
        assert nest_recorder.cold == [], kernel
        assert [name for name, *_ in nest_recorder.calls] == 2 * launched[kernel]
        after = loopnest.provenance()
        assert after["prepared"] - before["prepared"] == 1
        assert after["launches"] - before["launches"] == 3
    assert nest_recorder.carried == 0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cap", [None, 2000])
def test_a_compiled_kernel_call_allocates_nothing_that_grows_with_the_block(
    monkeypatch, cap, dtype
):
    """After the arenas have grown: tuples, ints and the views of a strip's
    planes, per member — the same few KB for this block and one 9x its size."""
    executors.compiled_nests()
    if cap:
        monkeypatch.setattr(scratch, "STRIP_ELEMENTS", cap)
    peaks = []
    for ny, nx in ((100, 80), (300, 240)):
        z, m, n, hz = random_state(ny, nx, seed=9, dtype=dtype)
        out_z, out_m, out_n = np.empty_like(z), np.empty_like(m), np.empty_like(n)
        peaks.append(allocated_by(lambda: mass.nlmass(z, m, n, hz, DT, DX, out_z)))
        peaks.append(allocated_by(
            lambda: momentum.nlmnt2(z, m, n, hz, DT, DX, MANNING, out_m, out_n)
        ))
        acc, state = accumulator_after_a_step(ny, nx, dtype)
        peaks.append(allocated_by(lambda: acc.update(*state)))
    assert max(peaks) < 16 * 1024, peaks
