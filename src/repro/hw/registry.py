"""The four evaluation systems of Table II, with calibration provenance.

Bandwidths are *effective* (attainable by a saturated stencil kernel), not
marketing peaks.  Each calibrated constant cites its anchor:

* **A100 (SQUID GPU)** — Fig. 5: NLMNT2 fits ``1.09e-4 us/cell + 46.2 us``.
  With 2039 GB/s nominal HBM2e, efficiency 0.88, and solo fraction 0.25
  (Fig. 10 saturates at 4 queues), a lone kernel attains 449 GB/s, and
  49 B/cell yields exactly the measured slope; the intercept is the
  42 us device-fixed + 4.2 us enqueue cost.
* **VE Type 30A (AOBA-S)** — Fig. 15: four VEs complete the six-hour
  Kochi run in 640 s.  Vector engines run one loop nest at a time at
  near-STREAM bandwidth (solo fraction 1.0, efficiency 0.74 calibrated to
  the 640 s anchor including its per-loop startup cost).
* **Xeon 8368 (SQUID CPU)** — Fig. 15: 1636 s on 4 sockets; LIKWID miss
  rates 33/14/3 % on 8/16/32 sockets drive the cache model.
* **H100 PCIe (Pegasus GPU)** — Fig. 15: 82 s on 32 GPUs; effective
  bandwidth ~1.2x the A100's (larger L2, HBM2e at 2 TB/s nominal), same
  launch economics under HPC SDK 24.1.
* **Xeon 8468 (Pegasus CPU)** — Fig. 15: 1476 s on 4 sockets (DDR5).
"""

from __future__ import annotations

from repro.errors import PlatformError
from repro.hw.cache import CacheModel
from repro.hw.platform import NodeSpec, PlatformSpec, SystemSpec

PLATFORMS: dict[str, PlatformSpec] = {
    "a100-sxm4": PlatformSpec(
        name="NVIDIA A100 (SXM4)",
        kind="gpu",
        mem_bw_gbs=2039.0,
        efficiency=0.88,
        solo_fraction=0.25,
        launch_overhead_us=40.0,
        enqueue_us=4.2,
        kernel_fixed_us=42.0,
        max_queues=8,
        traffic_multiplier=6.5,
        saturation_cells=1.0e6,
    ),
    "h100-pcie": PlatformSpec(
        name="NVIDIA H100 (PCIe)",
        kind="gpu",
        mem_bw_gbs=3150.0,  # effective: HBM2e + 50 MB L2 reuse
        efficiency=0.88,
        solo_fraction=0.25,
        launch_overhead_us=36.0,
        enqueue_us=3.8,
        kernel_fixed_us=38.0,
        max_queues=8,
        traffic_multiplier=6.5,
        saturation_cells=1.0e6,
    ),
    "ve-type30a": PlatformSpec(
        name="NEC Vector Engine Type 30A",
        kind="vector",
        mem_bw_gbs=2450.0,
        efficiency=0.85,  # AOBA-S 4-VE anchor: 640 s (Fig. 15)
        solo_fraction=1.0,
        launch_overhead_us=0.0,
        enqueue_us=0.0,
        kernel_fixed_us=3.0,  # vector-pipeline startup per loop nest
        max_queues=1,
        traffic_multiplier=9.0,
    ),
    "xeon-8368": PlatformSpec(
        name="Intel Xeon Platinum 8368 (Ice Lake)",
        kind="cpu",
        mem_bw_gbs=204.0,
        efficiency=0.39,  # attainable DRAM ~80 GB/s (SQUID 4-socket anchor)
        solo_fraction=1.0,
        launch_overhead_us=0.0,
        enqueue_us=0.0,
        kernel_fixed_us=3.0,  # OpenMP parallel-do overhead
        max_queues=1,
        l3_mb=57.0,
        l3_bw_gbs=150.0,  # calibrated so 8->16 sockets is super-linear
    ),
    "xeon-8468": PlatformSpec(
        name="Intel Xeon Platinum 8468 (Sapphire Rapids)",
        kind="cpu",
        mem_bw_gbs=307.0,
        efficiency=0.20,  # attainable ~61 GB/s with 4 procs/socket
        solo_fraction=1.0,
        launch_overhead_us=0.0,
        enqueue_us=0.0,
        kernel_fixed_us=3.0,
        max_queues=1,
        l3_mb=105.0,
        l3_bw_gbs=153.0,
    ),
}

SYSTEMS: dict[str, SystemSpec] = {
    "aoba-s": SystemSpec(
        name="AOBA-S",
        node=NodeSpec(
            platform=PLATFORMS["ve-type30a"],
            devices_per_node=8,
            nics_per_node=2,
            nic_bw_gbs=25.0,  # InfiniBand NDR200
            nic_latency_us=1.5,
        ),
        proto_auto_default=True,
        nic_affinity_default=True,
        cpu_model="AMD EPYC 7763",
        memory="DDR4 256GB",
        accelerator="NEC Vector Engine Type 30A x8",
        interconnect="InfiniBand NDR200 x2",
        compilers="NEC Fortran 5.2.0",
    ),
    "squid-gpu": SystemSpec(
        name="SQUID (GPU node)",
        node=NodeSpec(
            platform=PLATFORMS["a100-sxm4"],
            devices_per_node=8,
            nics_per_node=4,
            nic_bw_gbs=12.5,  # InfiniBand HDR100
            nic_latency_us=2.0,
            pcie_bw_gbs=16.0,
            pcie_latency_us=8.0,
        ),
        proto_auto_default=False,  # UCX_PROTO_ENABLE off (older UCX)
        nic_affinity_default=False,  # 8 GPUs share 4 NICs over 4 switches
        cpu_model="Intel Xeon Platinum 8368 x2",
        memory="DDR4 512GB",
        accelerator="NVIDIA A100 (SXM4) x8",
        interconnect="InfiniBand HDR100 x4",
        compilers="NVIDIA HPC SDK 22.11",
    ),
    "squid-cpu": SystemSpec(
        name="SQUID (CPU node)",
        node=NodeSpec(
            platform=PLATFORMS["xeon-8368"],
            devices_per_node=2,  # sockets per node
            nics_per_node=1,
            nic_bw_gbs=25.0,  # InfiniBand HDR200
            nic_latency_us=2.0,
        ),
        proto_auto_default=True,
        nic_affinity_default=True,
        cpu_model="Intel Xeon Platinum 8368 x2",
        memory="DDR4 256GB",
        accelerator="N/A",
        interconnect="InfiniBand HDR200 x1",
        compilers="Intel oneAPI 2023.2.4",
    ),
    "pegasus-gpu": SystemSpec(
        name="Pegasus (GPU)",
        node=NodeSpec(
            platform=PLATFORMS["h100-pcie"],
            devices_per_node=1,
            nics_per_node=1,
            nic_bw_gbs=25.0,  # InfiniBand NDR200
            nic_latency_us=1.5,
            pcie_bw_gbs=32.0,  # PCIe gen5
            pcie_latency_us=7.0,
        ),
        proto_auto_default=True,  # newer UCX: enabled by default (V-D)
        nic_affinity_default=True,  # one GPU + one NIC per node
        cpu_model="Intel Xeon Platinum 8468 x1",
        memory="DDR5 128GB",
        accelerator="NVIDIA H100 (PCIe) x1",
        interconnect="InfiniBand NDR200 x1",
        compilers="NVIDIA HPC SDK 24.1",
    ),
    "pegasus-cpu": SystemSpec(
        name="Pegasus (CPU)",
        node=NodeSpec(
            platform=PLATFORMS["xeon-8468"],
            devices_per_node=1,  # one socket per node; the 4-processes-
            # per-socket tuning of V-E is folded into the socket's
            # calibrated efficiency
            nics_per_node=1,
            nic_bw_gbs=25.0,
            nic_latency_us=1.5,
        ),
        proto_auto_default=True,
        nic_affinity_default=True,
        cpu_model="Intel Xeon Platinum 8468 x1",
        memory="DDR5 128GB",
        accelerator="N/A",
        interconnect="InfiniBand NDR200 x1",
        compilers="Intel oneAPI 2023.0.0",
    ),
}


#: Stored linear NLMNT2 cost models per platform key, as
#: ``(slope_us_per_cell, intercept_us, r2)``.  The A100 entry is the
#: paper's published Fig.-5 fit; the others are
#: :func:`repro.balance.apply.fit_platform_model` on the calibrated
#: hardware model (the Fig.-5 procedure; ``tests/test_observatory.py``
#: refits them).  ``repro retune`` reports live-trace drift against these.
REFERENCE_MODELS: dict[str, tuple[float, float, float]] = {
    "a100-sxm4": (1.09e-4, 46.2, 0.942),
    "h100-pcie": (0.0004499531888016348, 36.60527473322083,
                  0.9998862093365234),
    "ve-type30a": (0.00021176470588235298, 3.0000000000000404, 1.0),
    "xeon-8368": (0.0006158873805932631, 3.0000000000002776, 1.0),
    "xeon-8468": (0.0007980456026058632, 3.000000000000232, 1.0),
}


def platform_key_of(platform: PlatformSpec) -> str | None:
    """Registry key of a :class:`PlatformSpec`; ``None`` if unregistered."""
    for key, spec in PLATFORMS.items():
        if spec is platform:
            return key
    return None


def reference_model_for(key: str):
    """The stored :class:`~repro.balance.perfmodel.LinearPerfModel` of
    platform *key*, every platform's drift anchor.  (The import is
    deferred: ``repro.hw`` must stay importable without
    ``repro.balance``.)
    """
    from repro.balance.perfmodel import LinearPerfModel

    if key not in REFERENCE_MODELS:
        raise PlatformError(
            f"unknown platform {key!r}; have {sorted(PLATFORMS)}"
        )
    return LinearPerfModel(*REFERENCE_MODELS[key])


def get_system(key: str) -> SystemSpec:
    try:
        return SYSTEMS[key]
    except KeyError:
        raise PlatformError(
            f"unknown system {key!r}; have {sorted(SYSTEMS)}"
        ) from None


def cache_model_for(platform: PlatformSpec) -> CacheModel | None:
    """Cache model for CPU platforms; ``None`` for GPUs and VEs."""
    if platform.l3_mb <= 0:
        return None
    return CacheModel(
        l3_mb=platform.l3_mb,
        dram_bw_gbs=platform.mem_bw_gbs * platform.efficiency,
        l3_bw_gbs=platform.l3_bw_gbs,
    )
