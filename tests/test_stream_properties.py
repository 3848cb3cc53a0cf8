"""Property-based invariants of the stream/queue simulator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import KernelInvocation, LaunchMode, StreamSimulator
from repro.hw.platform import PlatformSpec


def platform(solo=0.25, fixed=20.0, enqueue=2.0, launch=10.0):
    return PlatformSpec(
        name="test-gpu",
        kind="gpu",
        mem_bw_gbs=1000.0,
        solo_fraction=solo,
        kernel_fixed_us=fixed,
        enqueue_us=enqueue,
        launch_overhead_us=launch,
    )


kernel_sizes = st.lists(
    st.integers(10_000, 2_000_000), min_size=1, max_size=12
)


@given(sizes=kernel_sizes, q=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_all_kernels_complete_exactly_once(sizes, q):
    p = platform()
    sim = StreamSimulator(p, n_queues=q, mode=LaunchMode.ASYNC)
    sim.submit_all(
        [KernelInvocation("NLMNT2", c, label=f"k{i}") for i, c in enumerate(sizes)]
    )
    res = sim.run()
    assert sorted(e.label for e in res.events) == sorted(
        f"k{i}" for i in range(len(sizes))
    )


@given(sizes=kernel_sizes, q=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_makespan_bounds(sizes, q):
    """Makespan is bounded below by perfect sharing and above by serial solo."""
    p = platform()
    kernels = [KernelInvocation("NLMNT2", c) for c in sizes]
    sim = StreamSimulator(p, n_queues=q, mode=LaunchMode.ASYNC)
    sim.submit_all(list(kernels))
    res = sim.run()
    total_bytes = sum(k.bytes_moved for k in kernels) * p.traffic_multiplier
    lower = 1e-3 * total_bytes / p.effective_bw_gbs
    serial = sum(
        p.kernel_fixed_us
        + 1e-3 * k.bytes_moved * p.traffic_multiplier / p.solo_bw_gbs
        for k in kernels
    ) + p.enqueue_us * len(kernels)
    assert res.makespan_us >= lower - 1e-6
    assert res.makespan_us <= serial + 1e-6


@given(sizes=kernel_sizes)
@settings(max_examples=30, deadline=None)
def test_async_never_slower_than_sync(sizes):
    p = platform()
    kernels = [KernelInvocation("NLMNT2", c) for c in sizes]
    sync = StreamSimulator(p, mode=LaunchMode.SYNC)
    sync.submit_all(list(kernels))
    t_sync = sync.run().makespan_us
    a = StreamSimulator(p, n_queues=4, mode=LaunchMode.ASYNC)
    a.submit_all(list(kernels))
    assert a.run().makespan_us <= t_sync + 1e-6


@given(sizes=kernel_sizes, q=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_events_nonoverlapping_within_queue(sizes, q):
    p = platform()
    sim = StreamSimulator(p, n_queues=q, mode=LaunchMode.ASYNC)
    sim.submit_all([KernelInvocation("NLMNT2", c) for c in sizes])
    res = sim.run()
    by_queue: dict[int, list] = {}
    for e in res.events:
        by_queue.setdefault(e.queue, []).append(e)
    for events in by_queue.values():
        events.sort(key=lambda e: e.start_us)
        for a, b in zip(events, events[1:]):
            assert a.end_us <= b.start_us + 1e-9


@given(sizes=kernel_sizes, q=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_utilizations_in_unit_interval(sizes, q):
    p = platform()
    sim = StreamSimulator(p, n_queues=q, mode=LaunchMode.ASYNC)
    sim.submit_all([KernelInvocation("NLMNT2", c) for c in sizes])
    res = sim.run()
    assert 0.0 <= res.memory_utilization <= res.gpu_utilization <= 1.0 + 1e-9


@given(
    sizes=kernel_sizes,
    scale=st.floats(0.2, 3.0),
)
@settings(max_examples=25, deadline=None)
def test_bw_scale_inversely_scales_transfer_time(sizes, scale):
    """Halving the bandwidth must not make anything faster."""
    p = platform()
    a = StreamSimulator(p, n_queues=4, bw_scale=1.0)
    a.submit_all([KernelInvocation("NLMNT2", c) for c in sizes])
    b = StreamSimulator(p, n_queues=4, bw_scale=scale)
    b.submit_all([KernelInvocation("NLMNT2", c) for c in sizes])
    ta, tb = a.run().makespan_us, b.run().makespan_us
    if scale < 1.0:
        assert tb >= ta - 1e-6
    else:
        assert tb <= ta + 1e-6
