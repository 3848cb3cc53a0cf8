"""Hardware platform descriptions."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlatformError


@dataclass(frozen=True)
class PlatformSpec:
    """One compute device (a GPU, a CPU socket, or a Vector Engine).

    All bandwidths are GB/s, times microseconds.

    Parameters
    ----------
    name, kind:
        Identity; ``kind`` is ``"cpu"``, ``"gpu"`` or ``"vector"``.
    mem_bw_gbs:
        Effective saturated memory bandwidth of the device.
    efficiency:
        Fraction of ``mem_bw_gbs`` the solver's kernels attain when the
        device is saturated (stencil codes never reach STREAM bandwidth;
        vector engines come closest).
    solo_fraction:
        Fraction of the saturated bandwidth a *single* kernel attains when
        running alone.  On GPUs the per-block kernels are too small to
        fill the device (Section IV-B: "less than 10^6 iterations ...
        cannot saturate the whole GPU"); the paper's Fig. 10 saturation at
        four queues corresponds to ``solo_fraction = 0.25``.  CPUs and
        VEs execute one kernel at a time at full bandwidth (1.0).
    launch_overhead_us:
        Host-side cost of one *synchronous* kernel launch (the host blocks
        until completion, so this is pure added latency).
    enqueue_us:
        Host-side cost of one asynchronous enqueue.
    kernel_fixed_us:
        Device-side fixed time per kernel (ramp-up/drain).  The paper's
        A100 microbenchmark measures launch+fixed = 46.2 us per NLMNT2
        invocation (Fig. 5 intercept).
    max_queues:
        Maximum useful concurrency (CUDA streams); 1 for CPU/VE.
    l3_mb / l3_bw_gbs:
        Last-level cache size and bandwidth (CPU only; 0 disables the
        cache model).
    traffic_multiplier:
        Ratio of *production* memory traffic to the algorithmic minimum.
        The legacy vectorized code materializes full-array temporaries
        across its many loops; on cache-less accelerators (VE, GPU) those
        stream to device memory (multiplier ~9, calibrated to the paper's
        Fig.-15 anchors), while CPU caches absorb them (multiplier 1, the
        compulsory traffic only — the L3 model then adds the working-set
        effects).  Microbenchmarks on a cache-resident block bypass it.
    """

    name: str
    kind: str
    mem_bw_gbs: float
    efficiency: float = 1.0
    solo_fraction: float = 1.0
    launch_overhead_us: float = 0.0
    enqueue_us: float = 0.0
    kernel_fixed_us: float = 0.0
    max_queues: int = 1
    l3_mb: float = 0.0
    l3_bw_gbs: float = 0.0
    traffic_multiplier: float = 1.0
    #: Cells at which a single kernel saturates the device by itself.
    #: Section IV-B: collapsed loops "result in a total of less than 10^6
    #: iterations in most cases and cannot saturate the whole GPU"; a
    #: kernel of `saturation_cells` or more attains the full bandwidth
    #: alone.  `inf` keeps the per-kernel cap constant (CPU/VE).
    saturation_cells: float = float("inf")

    def __post_init__(self) -> None:
        if self.kind not in ("cpu", "gpu", "vector"):
            raise PlatformError(f"unknown platform kind {self.kind!r}")
        if self.mem_bw_gbs <= 0:
            raise PlatformError("mem_bw_gbs must be positive")
        if not 0 < self.efficiency <= 1:
            raise PlatformError("efficiency must be in (0, 1]")
        if not 0 < self.solo_fraction <= 1:
            raise PlatformError("solo_fraction must be in (0, 1]")
        if self.max_queues < 1:
            raise PlatformError("max_queues must be >= 1")
        if self.traffic_multiplier < 1.0:
            raise PlatformError("traffic_multiplier must be >= 1")

    @property
    def effective_bw_gbs(self) -> float:
        """Saturated attainable bandwidth for the solver's kernels."""
        return self.mem_bw_gbs * self.efficiency

    @property
    def solo_bw_gbs(self) -> float:
        """Attainable bandwidth of one kernel running alone."""
        return self.effective_bw_gbs * self.solo_fraction


@dataclass(frozen=True)
class NodeSpec:
    """One compute node: devices plus its network attachment."""

    platform: PlatformSpec
    devices_per_node: int
    nics_per_node: int
    nic_bw_gbs: float
    nic_latency_us: float = 2.0
    pcie_bw_gbs: float = 16.0
    pcie_latency_us: float = 8.0

    def __post_init__(self) -> None:
        if self.devices_per_node < 1 or self.nics_per_node < 1:
            raise PlatformError("devices and NICs per node must be >= 1")


@dataclass(frozen=True)
class SystemSpec:
    """A named HPC system (one Table-II column)."""

    name: str
    node: NodeSpec
    #: UCX protocol auto-selection available by default (newer UCX).
    proto_auto_default: bool = False
    #: GPU-NIC affinity correct by default (true when 1 GPU + 1 NIC/node).
    nic_affinity_default: bool = True
    #: Extra descriptive fields for Table II.
    cpu_model: str = ""
    memory: str = ""
    accelerator: str = ""
    interconnect: str = ""
    compilers: str = ""

    @property
    def platform(self) -> PlatformSpec:
        return self.node.platform
