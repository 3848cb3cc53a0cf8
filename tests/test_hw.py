"""Tests for the hardware model (repro.hw)."""

import numpy as np
import pytest

from repro.errors import PlatformError
from repro.hw import (
    CacheModel,
    KernelInvocation,
    LaunchMode,
    PLATFORMS,
    StreamSimulator,
    get_system,
)
from repro.hw.cache import WORKING_SET_BYTES_PER_CELL
from repro.hw.kernelcost import ROUTINE_BYTES_PER_CELL
from repro.hw.platform import NodeSpec, PlatformSpec
from repro.hw.registry import cache_model_for, reference_model_for
from tests.oracles import kernel_solo_time_us, nvml_report, utilization_from_events


class TestPlatformSpec:
    def test_registry_has_table2_systems(self):
        for key in ("aoba-s", "squid-gpu", "squid-cpu", "pegasus-gpu", "pegasus-cpu"):
            assert get_system(key).name

    def test_unknown_keys_raise(self):
        with pytest.raises(PlatformError):
            reference_model_for("cray-1")
        with pytest.raises(PlatformError):
            get_system("fugaku")

    def test_invalid_spec_rejected(self):
        with pytest.raises(PlatformError):
            PlatformSpec(name="x", kind="tpu", mem_bw_gbs=100.0)
        with pytest.raises(PlatformError):
            PlatformSpec(name="x", kind="gpu", mem_bw_gbs=-1.0)
        with pytest.raises(PlatformError):
            PlatformSpec(name="x", kind="gpu", mem_bw_gbs=1.0, efficiency=2.0)

    def test_solo_bw_relation(self):
        p = PLATFORMS["a100-sxm4"]
        assert p.solo_bw_gbs == pytest.approx(
            p.mem_bw_gbs * p.efficiency * p.solo_fraction
        )

    def test_cache_model_only_for_cpus(self):
        assert cache_model_for(PLATFORMS["a100-sxm4"]) is None
        assert cache_model_for(PLATFORMS["xeon-8368"]) is not None


class TestKernelCost:
    def test_known_routines(self):
        for r in ("NLMASS", "NLMNT2", "OUTPUT", "PACK", "UNPACK"):
            assert ROUTINE_BYTES_PER_CELL[r] > 0

    def test_unknown_routine_rejected(self):
        with pytest.raises(PlatformError):
            KernelInvocation("FOO", 100)

    def test_bytes_scale_with_cells(self):
        a = KernelInvocation("NLMNT2", 1000)
        b = KernelInvocation("NLMNT2", 2000)
        assert b.bytes_moved == pytest.approx(2 * a.bytes_moved)

    def test_solo_time_monotone(self):
        p = PLATFORMS["a100-sxm4"]
        t1 = kernel_solo_time_us(KernelInvocation("NLMNT2", 100_000), p)
        t2 = kernel_solo_time_us(KernelInvocation("NLMNT2", 500_000), p)
        assert t2 > t1 > p.kernel_fixed_us

class TestStreamSimulator:
    def p(self):
        return PLATFORMS["a100-sxm4"]

    def test_sync_serializes_with_launch_overhead(self):
        p = self.p()
        sim = StreamSimulator(p, mode=LaunchMode.SYNC, traffic_multiplier=1.0)
        k = KernelInvocation("NLMNT2", 100_000)
        sim.submit_all([k, k])
        res = sim.run()
        assert len(res.events) == 2
        single = kernel_solo_time_us(k, p) + p.launch_overhead_us
        assert res.makespan_us == pytest.approx(2 * single)

    def test_async_one_queue_hides_launch(self):
        p = self.p()
        k = KernelInvocation("NLMNT2", 100_000)
        sync = StreamSimulator(p, mode=LaunchMode.SYNC, traffic_multiplier=1.0)
        sync.submit_all([k] * 8)
        t_sync = sync.run().makespan_us
        a1 = StreamSimulator(p, n_queues=1, mode=LaunchMode.ASYNC, traffic_multiplier=1.0)
        a1.submit_all([k] * 8)
        t_async = a1.run().makespan_us
        assert t_async < t_sync

    def test_more_queues_saturate(self):
        # With no fixed phase the plateau at 1/solo_fraction queues is
        # exact: 4 concurrent kernels at 25% each saturate the device.
        p = PlatformSpec(
            name="ideal-gpu",
            kind="gpu",
            mem_bw_gbs=1000.0,
            solo_fraction=0.25,
            enqueue_us=0.0,
        )
        k = KernelInvocation("NLMNT2", 400_000)
        times = {}
        for q in (1, 2, 4, 8):
            sim = StreamSimulator(p, n_queues=q, traffic_multiplier=1.0)
            sim.submit_all([k] * 16)
            times[q] = sim.run().makespan_us
        assert times[2] == pytest.approx(times[1] / 2)
        assert times[4] == pytest.approx(times[1] / 4)
        # Saturation: 8 queues gain nothing over 4 (the Fig. 10 plateau).
        assert times[8] == pytest.approx(times[4])

    def test_fixed_phase_overlap_helps_beyond_saturation(self):
        # With a fixed phase, extra queues still help a little because
        # fixed phases of some kernels overlap transfers of others — the
        # "better overlap between blocks" the paper observes in Fig. 6.
        p = self.p()
        k = KernelInvocation("NLMNT2", 400_000)
        times = {}
        for q in (4, 8):
            sim = StreamSimulator(p, n_queues=q, traffic_multiplier=1.0)
            sim.submit_all([k] * 16)
            times[q] = sim.run().makespan_us
        assert times[4] * 0.5 < times[8] <= times[4]

    def test_queue_fifo_order(self):
        p = self.p()
        sim = StreamSimulator(p, n_queues=1, traffic_multiplier=1.0)
        sim.submit_all(
            [KernelInvocation("NLMNT2", 100_000, label=f"k{i}") for i in range(3)]
        )
        res = sim.run()
        labels = [e.label for e in sorted(res.events, key=lambda e: e.start_us)]
        assert labels == ["k0", "k1", "k2"]

    def test_merged_kernel_uses_full_bandwidth(self):
        p = self.p()
        big = KernelInvocation("NLMNT2", 3_000_000, solo_fraction=1.0)
        capped = KernelInvocation("NLMNT2", 3_000_000, solo_fraction=0.25)
        t_big = StreamSimulator(p, traffic_multiplier=1.0)
        t_big.submit(big)
        t_cap = StreamSimulator(p, traffic_multiplier=1.0)
        t_cap.submit(capped)
        assert t_big.run().makespan_us < t_cap.run().makespan_us

    def test_size_dependent_saturation(self):
        # Above saturation_cells a lone kernel attains full bandwidth.
        p = self.p()
        k = KernelInvocation("NLMNT2", int(2 * p.saturation_cells))
        sim = StreamSimulator(p, traffic_multiplier=1.0)
        sim.submit(k)
        res = sim.run()
        expected = p.kernel_fixed_us + 1e-3 * k.bytes_moved / p.effective_bw_gbs
        assert res.events[0].duration_us == pytest.approx(expected, rel=1e-6)

    def test_empty_batch(self):
        sim = StreamSimulator(self.p())
        res = sim.run()
        assert res.makespan_us == 0.0
        assert res.events == []

    def test_bad_queue_count(self):
        with pytest.raises(PlatformError):
            StreamSimulator(self.p(), n_queues=0)

    def test_utilization_consistency(self):
        p = self.p()
        sim = StreamSimulator(p, n_queues=4, traffic_multiplier=1.0)
        sim.submit_all([KernelInvocation("NLMNT2", 200_000)] * 12)
        res = sim.run()
        # Internal busy accounting vs interval-union recomputation.
        assert res.gpu_utilization == pytest.approx(
            utilization_from_events(res.events, res.makespan_us), rel=1e-9
        )
        rep = nvml_report(res)
        assert 0.0 < rep["memory_utilization"] <= rep["gpu_utilization"] <= 1.0

    def test_traffic_multiplier_scales_time(self):
        p = self.p()
        k = KernelInvocation("NLMNT2", 1_000_000)
        t1 = StreamSimulator(p, traffic_multiplier=1.0)
        t1.submit(k)
        t9 = StreamSimulator(p, traffic_multiplier=9.0)
        t9.submit(k)
        d1 = t1.run().events[0].duration_us - p.kernel_fixed_us
        d9 = t9.run().events[0].duration_us - p.kernel_fixed_us
        assert d9 == pytest.approx(9 * d1, rel=1e-9)


class TestCacheModel:
    def model(self):
        return CacheModel(l3_mb=57.0, dram_bw_gbs=80.0, l3_bw_gbs=150.0)

    def test_measured_anchors_reproduced(self):
        cm = self.model()
        # The LIKWID anchors: ws/L3 ratios 7.46, 3.73, 1.87 -> 33/14/3 %.
        for ratio, miss in ((7.46, 0.33), (3.73, 0.14), (1.87, 0.03)):
            assert cm.miss_rate(ratio * 57.0e6) == pytest.approx(miss, rel=0.02)

    def test_miss_monotone_in_ws(self):
        cm = self.model()
        ws = np.geomspace(1e6, 1e10, 20)
        miss = [cm.miss_rate(w) for w in ws]
        assert all(a <= b + 1e-12 for a, b in zip(miss, miss[1:]))

    def test_miss_clamped_to_one(self):
        assert self.model().miss_rate(1e13) <= 1.0

    def test_effective_bw_between_dram_and_l3(self):
        cm = self.model()
        for ws in (1e7, 1e8, 1e9):
            bw = cm.effective_bw_gbs(ws)
            assert 80.0 * 0.9 <= bw <= 150.0

    def test_superlinear_scaling_mechanism(self):
        # Halving the working set must raise the effective bandwidth:
        # that is the Fig. 15 super-linear CPU speedup.
        cm = self.model()
        ws8 = 47.2e6 * WORKING_SET_BYTES_PER_CELL / 8
        ws16 = ws8 / 2
        assert cm.effective_bw_gbs(ws16) > cm.effective_bw_gbs(ws8)

    def test_invalid_params(self):
        with pytest.raises(PlatformError):
            CacheModel(l3_mb=0.0, dram_bw_gbs=80.0, l3_bw_gbs=150.0)


class TestNodeSpec:
    def test_validation(self):
        p = PLATFORMS["a100-sxm4"]
        with pytest.raises(PlatformError):
            NodeSpec(platform=p, devices_per_node=0, nics_per_node=1, nic_bw_gbs=10.0)
