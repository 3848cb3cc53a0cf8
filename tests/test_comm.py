"""Tests for the simulated MPI (repro.par.comm) on both of its transports.

Every class whose cases do not need one address space runs twice: as
written on rank threads, and through its ``...OnProcesses`` subclass on
forked rank processes (``slot_bytes=256``: some payloads below fit a
shared-memory slot, some do not).  ``TestRankProcesses`` holds what only
the process world has to prove.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.errors import (
    CommTimeoutError,
    CommunicationError,
    CommunicatorRevokedError,
)
from repro.obs.metrics import get_registry
from repro.par.comm import ANY_SOURCE, Communicator, run_ranks
from tests.rank_worlds import assert_nothing_left_behind, wait_for_one_thread

THREADS = {}
PROCESSES = {"slot_bytes": 256}


class _BothWorlds:
    """``self.run`` is ``run_ranks`` in the world the class names."""

    world = THREADS

    def run(self, n_ranks, fn, **kwargs):
        if self.world is PROCESSES:
            wait_for_one_thread()
        try:
            return run_ranks(n_ranks, fn, **self.world, **kwargs)
        finally:
            if self.world is PROCESSES:
                assert_nothing_left_behind()


class TestPointToPoint(_BothWorlds):
    def test_send_recv_object(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        results = self.run(2, fn)
        assert results[1] == {"a": 7}

    def test_numpy_payload_copied(self):
        def fn(comm):
            if comm.rank == 0:
                data = np.arange(10)
                comm.send(data, dest=1)
                data[:] = -1  # mutation after send must not leak
                return None
            got = comm.recv(source=0)
            return int(got.sum())

        assert self.run(2, fn)[1] == 45

    def test_received_array_is_the_receivers_own(self):
        def fn(comm):
            if comm.rank == 0:
                for k in range(20):  # more messages than a ring has slots
                    comm.send(np.full(8, float(k)), dest=1, tag=k)
                return None
            got = [comm.recv(source=0, tag=k) for k in range(20)]
            got[0][:] = -1.0  # writing one must not reach another
            return [float(a[0]) for a in got]

        assert self.run(2, fn)[1] == [-1.0] + [float(k) for k in range(1, 20)]

    def test_shape_and_dtype_survive(self):
        sent = [
            np.arange(12, dtype=np.float32).reshape(3, 4),
            np.arange(12).reshape(3, 4)[:, ::2],  # not contiguous
            np.array(2.5),
            np.zeros((0, 3)),
            np.array([True, False]),
            np.arange(4_000.0),  # larger than a slot
            np.array(["a", "bc"]),  # no slot for this dtype
        ]

        def fn(comm):
            if comm.rank == 0:
                for k, arr in enumerate(sent):
                    comm.send(arr, dest=1, tag=k)
                return None
            return [comm.recv(source=0, tag=k) for k in range(len(sent))]

        for want, got in zip(sent, self.run(2, fn)[1]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_tag_matching_out_of_order(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert self.run(2, fn)[1] == ("first", "second")

    def test_any_source(self):
        def fn(comm):
            if comm.rank == 0:
                got = sorted(comm.recv(source=ANY_SOURCE) for _ in range(2))
                return got
            comm.send(comm.rank, dest=0)
            return None

        assert self.run(3, fn)[0] == [1, 2]

    def test_send_to_self(self):
        def fn(comm):
            data = np.arange(3.0)
            comm.send(data, dest=comm.rank, tag=5)
            data[:] = -1.0
            return comm.recv(source=comm.rank, tag=5).tolist()

        assert self.run(2, fn) == [[0.0, 1.0, 2.0]] * 2

    def test_isend_irecv(self):
        def fn(comm):
            if comm.rank == 0:
                req = comm.isend(np.ones(4), dest=1)
                req.wait()
                return None
            req = comm.irecv(source=0)
            return float(req.wait().sum())

        assert self.run(2, fn)[1] == 4.0

    def test_sends_are_buffered_whatever_their_size(self):
        """Both ranks send before either receives, far more than a pipe
        (64 KiB) or a slot holds: neither may wait for the other to read."""

        def fn(comm):
            other = 1 - comm.rank
            comm.send(np.full(300_000, float(comm.rank)), dest=other)
            comm.send({"from": comm.rank, "pad": "x" * 200_000}, dest=other, tag=1)
            return float(comm.recv(source=other).sum()), comm.recv(tag=1)["from"]

        assert self.run(2, fn, comm_timeout=20.0) == [(300_000.0, 1), (0.0, 0)]

    def test_recv_timeout_is_deadlock_guard(self):
        def fn(comm):
            if comm.rank == 1:
                return comm.recv(source=0, timeout=0.2)
            return None

        with pytest.raises(CommunicationError):
            self.run(2, fn)


class TestPointToPointOnProcesses(TestPointToPoint):
    world = PROCESSES


class TestCollectives(_BothWorlds):
    def test_barrier(self):
        def fn(comm):
            time.sleep(0.02 * comm.rank)
            before = time.monotonic()  # one clock for every process
            comm.barrier_sync()
            return before, time.monotonic()

        stamps = self.run(3, fn)
        assert max(pre for pre, _ in stamps) <= min(post for _, post in stamps)

    def test_allreduce_sum(self):
        results = self.run(4, lambda c: c.allreduce(c.rank + 1))
        assert results == [10, 10, 10, 10]

    def test_allreduce_custom_op(self):
        results = self.run(3, lambda c: c.allreduce(c.rank, op=max))
        assert results == [2, 2, 2]

    def test_collectives_back_to_back(self):
        def fn(comm):
            out = [comm.allreduce(comm.rank + k) for k in range(5)]
            comm.barrier_sync()
            return out + [comm.allreduce(1)]

        assert self.run(3, fn) == [[3, 6, 9, 12, 15, 3]] * 3

    def test_gather(self):
        def fn(comm):
            return comm.gather(comm.rank * 10, root=0)

        results = self.run(3, fn)
        assert results[0] == [0, 10, 20]
        assert results[1] is None


class TestCollectivesOnProcesses(TestCollectives):
    world = PROCESSES


class TestErrorPropagation(_BothWorlds):
    def test_worker_exception_reraised(self):
        def fn(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier_sync(timeout=5.0)

        with pytest.raises((ValueError, CommunicationError)):
            self.run(2, fn)

    def test_a_rank_that_raises_comes_back_as_its_own_exception(self):
        def fn(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.recv(source=1, timeout=20.0)

        t0 = time.monotonic()
        results, errors = self.run(2, fn, return_errors=True)
        assert time.monotonic() - t0 < 10.0  # woken, not timed out
        assert results == [None, None]
        (rank, first), (blocked, second) = errors
        assert (rank, blocked) == (1, 0)
        assert type(first) is ValueError and first.args == ("boom",)
        assert first.failed_rank == 1
        assert isinstance(second, CommunicationError)
        assert "rank 1 failed" in str(second)

    def test_zero_ranks_rejected(self):
        with pytest.raises(CommunicationError):
            self.run(0, lambda c: None)

    def test_bad_destination(self):
        def fn(comm):
            comm.send(1, dest=5)

        with pytest.raises(CommunicationError):
            self.run(2, fn)


class TestErrorPropagationOnProcesses(TestErrorPropagation):
    world = PROCESSES


class TestTimeoutContext(_BothWorlds):
    """Timeout errors must say *what* was pending, not just that time ran out."""

    def test_recv_timeout_carries_endpoints(self):
        def fn(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=7, timeout=0.2)
            return None

        _results, errors = self.run(2, fn, return_errors=True)
        assert len(errors) == 1
        rank, exc = errors[0]
        assert rank == 1
        assert isinstance(exc, CommTimeoutError)
        assert exc.source == 0
        assert exc.dest == 1
        assert exc.tag == 7
        assert exc.op == "recv"
        assert "tag=7" in str(exc)

    def test_irecv_wait_timeout_lists_pending_requests(self):
        def fn(comm):
            if comm.rank == 1:
                req = comm.irecv(source=0, tag=3)
                req.wait(timeout=0.2)
            return None

        _results, errors = self.run(
            2, fn, timeout=10.0, comm_timeout=0.5, return_errors=True
        )
        waits = [
            e
            for _r, e in errors
            if isinstance(e, CommTimeoutError) and e.op == "irecv"
        ]
        assert waits, f"no irecv timeout surfaced: {errors}"
        exc = waits[0]
        assert exc.source == 0
        assert exc.tag == 3
        assert any("irecv(source=0, tag=3)" in p for p in exc.pending)

    def test_return_errors_does_not_raise(self):
        def fn(comm):
            if comm.rank == 0:
                raise ValueError("boom")
            return "survivor"

        results, errors = self.run(2, fn, return_errors=True)
        assert results[1] == "survivor"
        assert [r for r, _e in errors] == [0]

    @pytest.mark.parametrize("stuck", [(1, 2), (0, 2), (0, 1, 2)])
    def test_the_group_has_one_deadline_and_names_who_is_left(self, stuck):
        """Not one ``timeout`` per rank joined in turn, and not nobody."""

        def fn(comm):
            if comm.rank in stuck:
                # Long after the group's deadline, but not forever: a rank
                # thread outlives the run that gave up on it.
                comm.recv(source=ANY_SOURCE, tag=1, timeout=2.0)

        t0 = time.monotonic()
        with pytest.raises(CommTimeoutError) as caught:
            self.run(3, fn, timeout=0.5)
        assert time.monotonic() - t0 < 1.4  # three ranks, one 0.5 s deadline
        assert caught.value.op == "run_ranks"
        assert caught.value.pending == [f"rank {r}" for r in stuck]
        assert f"still running: {list(stuck)}" in str(caught.value)

    def test_a_rank_that_finishes_last_does_not_wait_for_the_deadline(self):
        """Rank 0 returning after the others have reported must find their
        reports, not sleep on pipes that have nothing more to say."""

        def fn(comm):
            time.sleep(0.3 if comm.rank == 0 else 0.0)
            return comm.rank

        t0 = time.monotonic()
        assert self.run(3, fn, timeout=20.0) == [0, 1, 2]
        assert time.monotonic() - t0 < 5.0


class TestTimeoutContextOnProcesses(TestTimeoutContext):
    world = PROCESSES


class TestRevokeAndAgree:
    """ULFM-style revocation + agreement on the dead-rank set."""

    def test_revoke_releases_blocked_receiver(self):
        def fn(comm):
            if comm.rank == 0:
                comm.revoke()
                return "revoker"
            try:
                comm.recv(source=0, timeout=10.0)
            except CommunicatorRevokedError:
                return "released"

        results = run_ranks(2, fn, timeout=10.0)
        assert results == ["revoker", "released"]

    def test_agree_converges_on_dead_set(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("dead rank")
            try:
                comm.recv(source=2, timeout=5.0)
            except CommunicationError:
                comm.revoke()
                return comm.agree_failures(timeout=5.0)

        results, errors = run_ranks(3, fn, timeout=20.0, return_errors=True)
        assert [r for r, _e in errors] == [2]
        assert results[0] == (2,)
        assert results[1] == (2,)

    def test_agree_with_no_failures_returns_empty(self):
        results = run_ranks(
            2, lambda c: c.agree_failures(timeout=5.0), timeout=10.0
        )
        assert results == [(), ()]

    @pytest.mark.parametrize("op", ["revoke", "agree_failures"])
    def test_rank_processes_refuse_rather_than_fake_it(self, op):
        def fn(comm):
            try:
                getattr(comm, op)()
            except CommunicationError as exc:
                return str(exc)

        for said in run_ranks(2, fn, **PROCESSES):
            assert op in said and "rank-thread world" in said


class TestHaloPipelineOverSimulatedMPI(_BothWorlds):
    """The pack -> send -> recv -> unpack pipeline of the real code."""

    def test_boundary_exchange_roundtrip(self):
        from repro.xchg.packing import (
            pack_boundary_offsets,
            unpack_boundary_offsets,
        )

        ny, nx = 8, 10
        rng = np.random.default_rng(3)
        fields = [rng.normal(0, 1, (ny, nx)) for _ in range(2)]

        def fn(comm):
            local = [f.copy() for f in fields]
            if comm.rank == 0:
                # Send my last two columns; receive into my ghost region
                # (here emulated as the first two columns).
                send_region = (slice(0, ny), slice(nx - 4, nx - 2))
                recv_region = (slice(0, ny), slice(nx - 2, nx))
                comm.send(pack_boundary_offsets(local, send_region), dest=1)
                buf = comm.recv(source=1)
                unpack_boundary_offsets(buf, local, recv_region)
            else:
                send_region = (slice(0, ny), slice(2, 4))
                recv_region = (slice(0, ny), slice(0, 2))
                comm.send(pack_boundary_offsets(local, send_region), dest=0)
                buf = comm.recv(source=0)
                unpack_boundary_offsets(buf, local, recv_region)
            return local

        r0, r1 = self.run(2, fn)
        # Rank 0's ghost columns hold rank 1's interior columns.
        assert np.array_equal(r0[0][:, nx - 2 : nx], fields[0][:, 2:4])
        assert np.array_equal(r1[0][:, 0:2], fields[0][:, nx - 4 : nx - 2])


class TestHaloPipelineOnProcesses(TestHaloPipelineOverSimulatedMPI):
    world = PROCESSES


class TestRankProcesses(_BothWorlds):
    """What forking the ranks must not lose, and must not leave behind."""

    world = PROCESSES

    def test_rank_zero_is_the_caller_and_the_others_are_its_children(self):
        pids = self.run(3, lambda comm: (os.getpid(), os.getppid()))
        assert pids[0][0] == os.getpid()
        assert [ppid for _pid, ppid in pids[1:]] == [os.getpid()] * 2
        assert len({pid for pid, _ppid in pids}) == 3

    def test_a_killed_rank_is_named_at_once_and_nothing_is_left(self):
        def fn(comm):
            comm.send(np.arange(4.0), dest=(comm.rank + 1) % 3)
            comm.recv(source=(comm.rank - 1) % 3)
            if comm.rank == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return comm.recv(source=1, tag=9)  # never sent

        t0 = time.monotonic()
        with pytest.raises(CommunicationError) as caught:
            self.run(3, fn, comm_timeout=60.0)
        assert time.monotonic() - t0 < 10.0  # end-of-file, not the timeout
        assert caught.value.failed_rank == 1
        assert "died without reporting (exit code -9)" in str(caught.value)

        _results, errors = self.run(3, fn, comm_timeout=60.0, return_errors=True)
        assert errors[0][0] == 1
        assert {rank for rank, _exc in errors} == {0, 1, 2}
        for rank, exc in errors[1:]:
            # Woken by the dead rank's end-of-file, or by rank 0 failing
            # over it first — never by the 60 s timeout.
            assert isinstance(exc, CommunicationError)
            assert f"rank {rank}: rank " in str(exc) and " failed" in str(exc)

    def test_the_culprit_comes_first_however_late_its_end_of_file_is_read(self):
        """A sibling woken by the dead rank's end-of-file can have its report
        parsed before the launcher reads that end-of-file itself; forced
        here by reading rank 2's pipe alone until its report is in."""

        def fn(comm):
            if comm.rank == 1:
                comm.recv(source=2)  # rank 2 is up
                os.kill(os.getpid(), signal.SIGKILL)
            if comm.rank == 2:
                comm.send("up", dest=1)
                return comm.recv(source=1, tag=9)  # never sent
            world = comm._world
            (from_2,) = (fd for fd, src in world.inbox._fds.items() if src == 2)
            give_up = time.monotonic() + 30.0
            while 2 not in world.reports:
                assert time.monotonic() < give_up
                world.inbox._drain([from_2])
                time.sleep(0.001)
            assert [rank for rank, _exc in world.errors] == [2]  # arrival order
            return comm.recv(source=1, tag=9)  # now the end-of-file of rank 1

        _results, errors = self.run(3, fn, comm_timeout=60.0, return_errors=True)
        assert [rank for rank, _exc in errors] == [1, 2, 0]
        assert "died without reporting (exit code -9)" in str(errors[0][1])
        # Rank 0 met rank 2's failure before the end-of-file of rank 1.
        assert [exc.failed_peer for _rank, exc in errors] == [None, 1, 2]
        with pytest.raises(CommunicationError) as caught:
            self.run(3, fn, comm_timeout=60.0)
        assert caught.value.failed_rank == 1

    def test_keyboard_interrupt_in_the_launcher_reaps_the_children(self):
        def fn(comm):
            if comm.rank == 0:
                comm.recv(source=1)  # the children are up and blocked
                raise KeyboardInterrupt
            comm.send(os.getpid(), dest=0)
            comm.recv(source=0, timeout=60.0)

        with pytest.raises(KeyboardInterrupt):
            self.run(3, fn)

    def test_children_take_signals_as_a_fresh_process_would(self):
        """So that a signalled run is journaled by the launcher alone."""

        def fn(comm):
            return [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]

        mine = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            dispositions = self.run(2, fn)
        finally:
            signal.signal(signal.SIGTERM, mine)
        assert dispositions[0][1] is not signal.SIG_DFL  # the launcher's own
        assert dispositions[1] == [signal.SIG_DFL, signal.SIG_DFL]

    def test_spans_and_counters_of_every_rank_come_home(self):
        obs.disable()
        obs.reset()
        obs.enable()
        try:
            with obs.context(obs.TraceContext("t")), obs.span("before-fork"):
                with obs.span("group") as group:

                    def fn(comm):
                        obs.set_context(rank=comm.rank)
                        inherited = len(obs.get_tracer().spans())
                        with obs.span("outer"), obs.span("inner"):
                            comm.send(np.zeros(5), dest=(comm.rank + 1) % 3)
                            comm.recv()
                        return inherited

                    inherited = self.run(3, fn)
            spans = obs.get_tracer().export()
        finally:
            obs.disable()
        # A child starts with an empty tracer; the launcher keeps its own.
        assert inherited[1:] == [0, 0]
        by_rank = {
            r: [s for s in spans if s["rank"] == r] for r in (0, 1, 2)
        }
        assert all(
            sorted(s["name"] for s in by_rank[r]) == ["inner", "outer"]
            for r in by_rank
        )
        assert [s["name"] for s in spans if s["rank"] is None] == [
            "before-fork", "group",
        ]
        # One track per rank, ids unique, parents resolvable.
        assert len({s["tid"] for r in by_rank for s in by_rank[r]}) == 3
        ids = [s["span_id"] for s in spans]
        assert len(set(ids)) == len(ids) == 8
        for r, (inner, outer) in (
            (r, sorted(by_rank[r], key=lambda s: s["name"])) for r in by_rank
        ):
            assert inner["parent_id"] == outer["span_id"], r
            assert outer["parent_id"] == group.span_id, r
            assert outer["trace_id"] == "t"
        # Three 40-byte arrays were sent, one of them by the launcher.
        assert get_registry().sample("repro_halo_bytes_total") == {
            "repro_halo_bytes_total": 120.0
        }
        # The launcher's thread is not left bound to rank 0.
        assert obs.get_tracer().bound_rank() is None
        obs.reset()

    def test_an_unpicklable_result_is_an_error_naming_the_rank(self):
        def fn(comm):
            return threading.Lock() if comm.rank == 1 else None

        with pytest.raises(CommunicationError) as caught:
            self.run(2, fn)
        assert caught.value.failed_rank == 1
        assert "could not be sent to the launcher" in str(caught.value)

    def test_a_caller_with_another_live_thread_is_refused(self):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30.0,))
        wait_for_one_thread()
        other.start()
        try:
            with pytest.raises(CommunicationError, match="only live thread"):
                run_ranks(2, lambda c: None, **PROCESSES)
        finally:
            release.set()
            other.join(30.0)
        assert not other.is_alive()

    def test_message_integrity_needs_rank_threads(self):
        from repro.resilience.integrity import MessageIntegrity

        with pytest.raises(CommunicationError, match="rank-thread world"):
            self.run(2, lambda c: None, integrity=MessageIntegrity())

    def test_comm_wrap_applies_on_every_rank(self):
        class Tagged:
            def __init__(self, comm: Communicator) -> None:
                self.rank = comm.rank

        assert self.run(3, lambda c: type(c).__name__ + str(c.rank),
                        comm_wrap=Tagged) == ["Tagged0", "Tagged1", "Tagged2"]
