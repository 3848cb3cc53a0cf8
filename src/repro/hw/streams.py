"""Event-driven simulation of kernel launches and asynchronous queues.

Models the mechanism of Section IV-B:

* **synchronous** launches: the host pays the launch overhead for every
  kernel and blocks until it completes — the device is idle during every
  launch gap;
* **asynchronous** launches: the host only pays a small enqueue cost and
  runs ahead; kernels in one queue execute back-to-back (launch latency
  hidden);
* **multiple queues**: head-of-line kernels of different queues execute
  *concurrently*, sharing the device memory bandwidth.  A single small
  kernel only attains ``solo_fraction`` of the saturated bandwidth, so
  concurrency increases utilization until the aggregate demand saturates
  the device (at ``1/solo_fraction`` queues — four on the A100/H100,
  matching Fig. 10/11).

The simulation is piecewise-constant-rate processor sharing: at any time
each transferring kernel progresses at
``min(solo_bw, effective_bw / n_transferring)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import PlatformError
from repro.hw.kernelcost import KernelInvocation
from repro.hw.platform import PlatformSpec


class LaunchMode(enum.Enum):
    """Kernel launch strategy (the paper's sync vs async comparison)."""

    SYNC = "sync"
    ASYNC = "async"


@dataclass(frozen=True)
class KernelEvent:
    """Execution record of one kernel on the simulated device."""

    label: str
    routine: str
    queue: int
    enqueue_us: float  # host-side time the launch was issued
    start_us: float  # device-side execution start (fixed phase)
    end_us: float  # device-side completion
    bytes_moved: float

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass
class StreamResult:
    """Outcome of simulating one batch of kernel launches."""

    events: list[KernelEvent]
    makespan_us: float  # host submit start -> all kernels complete
    host_us: float  # time the host thread was busy issuing
    busy_us: float  # device time with >= 1 kernel resident
    bw_integral: float  # integral of (instantaneous bw / effective bw) dt

    @property
    def gpu_utilization(self) -> float:
        """NVML 'GPU utilization': fraction of time a kernel was running."""
        return self.busy_us / self.makespan_us if self.makespan_us else 0.0

    @property
    def memory_utilization(self) -> float:
        """NVML 'memory utilization': duty cycle of the memory system."""
        return self.bw_integral / self.makespan_us if self.makespan_us else 0.0


def queue_occupancy(kernel_events, makespan_us: float) -> dict[int, float]:
    """Per-queue busy fraction of one simulated batch.

    The "queue occupancy" metric of the multi-queue experiments: how
    much of the makespan each asynchronous queue spent with a resident
    kernel.  Returns an empty dict for a zero/negative makespan.
    """
    if makespan_us <= 0:
        return {}
    busy: dict[int, float] = {}
    for ev in kernel_events:
        busy[ev.queue] = busy.get(ev.queue, 0.0) + ev.duration_us
    return {q: b / makespan_us for q, b in sorted(busy.items())}


@dataclass
class _Active:
    kernel: KernelInvocation
    queue: int
    enqueue_us: float
    start_us: float
    fixed_left: float
    bytes_left: float
    solo_bw: float


class StreamSimulator:
    """Simulate one rank's kernel batch on a device.

    Parameters
    ----------
    platform:
        Device model.
    n_queues:
        Number of asynchronous queues (ignored for SYNC).
    mode:
        Launch strategy.
    bw_scale:
        Bandwidth rescale (CPU cache model hook).
    slowdown:
        Uniform execution slowdown (>= 1 degrades, < 1 speeds up) applied
        to kernel fixed time and attainable bandwidth — the fault
        injection hook used to model straggler ranks (thermally
        throttled device, contended node).
    """

    def __init__(
        self,
        platform: PlatformSpec,
        n_queues: int = 1,
        mode: LaunchMode = LaunchMode.ASYNC,
        bw_scale: float = 1.0,
        traffic_multiplier: float | None = None,
        slowdown: float = 1.0,
    ) -> None:
        if n_queues < 1:
            raise PlatformError("n_queues must be >= 1")
        if slowdown <= 0:
            raise PlatformError("slowdown must be positive")
        self.platform = platform
        self.n_queues = n_queues
        self.mode = mode
        self.bw_scale = bw_scale
        self.slowdown = slowdown
        # Production runs stream the code's full temporary traffic;
        # microbenchmarks on a cache-resident block pass 1.0.
        self.traffic_multiplier = (
            platform.traffic_multiplier
            if traffic_multiplier is None
            else traffic_multiplier
        )
        self._pending: list[KernelInvocation] = []

    def _bytes(self, k: KernelInvocation) -> float:
        return k.bytes_moved * self.traffic_multiplier

    def _solo_fraction(self, k: KernelInvocation) -> float:
        if k.solo_fraction is not None:
            return k.solo_fraction
        p = self.platform
        size_frac = (
            k.cells / p.saturation_cells
            if p.saturation_cells != float("inf")
            else 0.0
        )
        return min(1.0, max(p.solo_fraction, size_frac))

    def submit(self, kernel: KernelInvocation) -> None:
        self._pending.append(kernel)

    def submit_all(self, kernels: list[KernelInvocation]) -> None:
        self._pending.extend(kernels)

    # ------------------------------------------------------------------

    def run(self) -> StreamResult:
        """Execute all submitted kernels; clears the pending list."""
        kernels, self._pending = self._pending, []
        if self.mode is LaunchMode.SYNC:
            return self._run_sync(kernels)
        return self._run_async(kernels)

    def _run_sync(self, kernels: list[KernelInvocation]) -> StreamResult:
        p = self.platform
        fixed_us = p.kernel_fixed_us * self.slowdown
        t = 0.0
        events = []
        busy = 0.0
        bw_int = 0.0
        for k in kernels:
            t_launch = t + p.launch_overhead_us
            k_bw = (
                p.effective_bw_gbs
                * self.bw_scale
                * self._solo_fraction(k)
                / self.slowdown
            )
            xfer = 1e-3 * self._bytes(k) / k_bw
            end = t_launch + fixed_us + xfer
            events.append(
                KernelEvent(
                    k.label, k.routine, 0, t, t_launch, end, k.bytes_moved
                )
            )
            busy += end - t_launch
            bw_int += xfer * (
                k_bw * self.slowdown / (p.effective_bw_gbs * self.bw_scale)
            )
            t = end
        return StreamResult(events, t, t, busy, bw_int)

    def _run_async(self, kernels: list[KernelInvocation]) -> StreamResult:
        p = self.platform
        full_bw = p.effective_bw_gbs * self.bw_scale / self.slowdown
        fixed_us = p.kernel_fixed_us * self.slowdown

        # Host issues enqueues back-to-back; kernel k becomes available to
        # its queue (round-robin) at arrival[k].
        arrival = [(i + 1) * p.enqueue_us for i in range(len(kernels))]
        host_us = arrival[-1] if arrival else 0.0

        queues: list[list[tuple[KernelInvocation, float]]] = [
            [] for _ in range(self.n_queues)
        ]
        for i, k in enumerate(kernels):
            queues[i % self.n_queues].append((k, arrival[i]))

        active: dict[int, _Active] = {}
        next_idx = [0] * self.n_queues
        events: list[KernelEvent] = []
        t = 0.0
        busy = 0.0
        bw_int = 0.0

        def admit(now: float) -> None:
            for q in range(self.n_queues):
                if q in active:
                    continue
                idx = next_idx[q]
                if idx >= len(queues[q]):
                    continue
                k, arr = queues[q][idx]
                if arr <= now + 1e-12:
                    next_idx[q] += 1
                    frac = self._solo_fraction(k)
                    active[q] = _Active(
                        k,
                        q,
                        arr,
                        now,
                        fixed_us,
                        self._bytes(k),
                        full_bw * frac,
                    )

        def next_arrival(now: float) -> float:
            nxt = math.inf
            for q in range(self.n_queues):
                if q in active:
                    continue
                idx = next_idx[q]
                if idx < len(queues[q]):
                    nxt = min(nxt, queues[q][idx][1])
            return nxt

        admit(t)
        while active or any(
            next_idx[q] < len(queues[q]) for q in range(self.n_queues)
        ):
            if not active:
                t = next_arrival(t)
                admit(t)
                continue
            transferring = [a for a in active.values() if a.fixed_left <= 0]
            # Proportional bandwidth sharing: each kernel is capped by its
            # own attainable solo bandwidth, and the aggregate by the
            # device's saturated bandwidth.
            demand = sum(a.solo_bw for a in transferring)
            scale = min(1.0, full_bw / demand) if demand > 0 else 0.0
            rates = {id(a): a.solo_bw * scale for a in transferring}

            # Earliest state change: a fixed phase ends, a transfer
            # completes, or a new kernel arrives to an idle queue.
            dt = math.inf
            for a in active.values():
                if a.fixed_left > 0:
                    dt = min(dt, a.fixed_left)
                else:
                    dt = min(dt, 1e-3 * a.bytes_left / rates[id(a)])
            arr = next_arrival(t)
            if arr > t:
                dt = min(dt, arr - t)
            if not math.isfinite(dt):
                raise PlatformError("stream simulation stalled")

            # Advance.
            busy += dt
            bw_int += dt * (demand * scale) / full_bw
            t += dt
            done_queues = []
            for q, a in active.items():
                if a.fixed_left > 0:
                    a.fixed_left -= dt
                    if a.fixed_left < 1e-12:
                        a.fixed_left = 0.0
                else:
                    a.bytes_left -= rates[id(a)] * dt * 1e3
                    if a.bytes_left < 1e-6:
                        done_queues.append(q)
            for q in done_queues:
                a = active.pop(q)
                events.append(
                    KernelEvent(
                        a.kernel.label,
                        a.kernel.routine,
                        q,
                        a.enqueue_us,
                        a.start_us,
                        t,
                        a.kernel.bytes_moved,
                    )
                )
            admit(t)
        makespan = max(t, host_us)
        return StreamResult(events, makespan, host_us, busy, bw_int)
