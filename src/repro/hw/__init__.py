"""Discrete-event hardware execution model.

The paper's performance results are functions of a small set of hardware
mechanisms: memory bandwidth (all kernels are memory-bound), per-kernel
launch/fixed overheads, asynchronous-queue concurrency, CPU last-level
cache behaviour, host-device copies, and the interconnect.  This package
models exactly those mechanisms:

* :class:`PlatformSpec` / :mod:`repro.hw.registry` — per-socket/device
  parameters for the four Table-II systems, with calibration anchors from
  the paper's own measurements documented inline;
* :mod:`repro.hw.kernelcost` — the roofline-style cost of one kernel
  invocation (bytes moved vs attainable bandwidth);
* :mod:`repro.hw.streams` — an event-driven simulator of host launches and
  per-queue FIFO execution with bandwidth sharing (the async/multi-queue
  mechanism of Section IV-B), which also accounts NVML's GPU and memory
  utilization (Fig. 11);
* :mod:`repro.hw.cache` — the L3 miss-rate model behind the super-linear
  CPU scaling of Fig. 15.
"""

from repro.lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "platform": "PlatformSpec NodeSpec SystemSpec",
    "registry": "PLATFORMS SYSTEMS get_system",
    "kernelcost": "KernelInvocation ROUTINE_BYTES_PER_CELL",
    "streams": "StreamSimulator KernelEvent LaunchMode",
    "cache": "CacheModel",
})
