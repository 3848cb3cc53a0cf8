"""Tests for the runtime layer (launch configs, breakdown, perf simulator)."""

import pytest

from repro.constants import KOCHI_STEPS
from repro.errors import ConfigurationError
from repro.hw import PLATFORMS, LaunchMode, get_system
from repro.par.decomposition import build_decomposition, equal_cell_assignment
from repro.runtime import (
    BREAKDOWN_PHASES,
    ExecutionConfig,
    PerformanceSimulator,
    RankBreakdown,
    build_routine_kernels,
    simulate_run_seconds,
)
from repro.runtime.breakdown import PhaseTime, format_breakdown_table
from repro.topo import build_kochi_grid


@pytest.fixture(scope="module")
def kochi():
    return build_kochi_grid()


@pytest.fixture(scope="module")
def decomp16(kochi):
    return build_decomposition(kochi, 16)


class TestExecutionConfig:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.launch is LaunchMode.ASYNC
        assert cfg.n_queues == 4
        assert cfg.comm == "gdr_tuned"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(n_queues=0)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(comm="pigeon")


class TestBuildRoutineKernels:
    def test_one_kernel_per_item(self, decomp16):
        p = PLATFORMS["a100-sxm4"]
        rw = decomp16.ranks[5]
        ks = build_routine_kernels(rw, "NLMNT2", p, ExecutionConfig())
        assert len(ks) == len(rw.items)
        assert sum(k.cells for k in ks) == rw.n_cells

    def test_lpt_ordering(self, decomp16):
        p = PLATFORMS["a100-sxm4"]
        rw = decomp16.ranks[8]
        ks = build_routine_kernels(rw, "NLMASS", p, ExecutionConfig())
        sizes = [k.cells for k in ks]
        assert sizes == sorted(sizes, reverse=True)

    def test_merged_single_kernel(self, decomp16):
        p = PLATFORMS["a100-sxm4"]
        rw = decomp16.ranks[8]
        ks = build_routine_kernels(
            rw, "NLMNT2", p, ExecutionConfig(merged_kernels=True)
        )
        assert len(ks) == 1
        assert ks[0].solo_fraction == 1.0
        assert ks[0].cells == rw.n_cells
        assert ks[0].extra_bytes >= 0.0

    def test_merged_padding_costs_more_on_cpu(self, decomp16):
        gpu = PLATFORMS["a100-sxm4"]
        cpu = PLATFORMS["xeon-8468"]
        cfg = ExecutionConfig(merged_kernels=True)
        # Find a rank whose items have differing heights (real padding).
        rw = max(
            decomp16.ranks,
            key=lambda r: max(i.n_rows for i in r.items)
            - min(i.n_rows for i in r.items),
        )
        k_gpu = build_routine_kernels(rw, "NLMNT2", gpu, cfg)[0]
        k_cpu = build_routine_kernels(rw, "NLMNT2", cpu, cfg)[0]
        assert k_cpu.extra_bytes > k_gpu.extra_bytes


class TestBreakdown:
    def test_phase_accounting(self):
        bd = RankBreakdown(0)
        bd.phases["NLMASS"] = PhaseTime(busy_us=10.0)
        bd.phases["JNZ"] = PhaseTime(busy_us=2.0, wait_us=5.0)
        assert bd.step_us == pytest.approx(17.0)
        assert bd.total_us("JNZ") == pytest.approx(7.0)
        assert bd.total_us("NLMASS") == 10.0

    def test_table_rendering(self):
        bd = RankBreakdown(3)
        text = format_breakdown_table([bd])
        for p in BREAKDOWN_PHASES:
            assert p in text
        assert "   3" in text


class TestPerformanceSimulator:
    def test_step_report_structure(self, kochi, decomp16):
        sim = PerformanceSimulator(
            kochi, decomp16, get_system("squid-gpu"), ExecutionConfig()
        )
        rep = sim.simulate_step()
        assert len(rep.breakdowns) == 16
        assert rep.step_us > 0
        # The step time equals the slowest rank's path.
        assert rep.step_us == pytest.approx(
            max(bd.step_us for bd in rep.breakdowns), rel=0.25
        )

    def test_compute_dominated_by_bottleneck_routines(self, kochi, decomp16):
        """Section IV-A: NLMASS+NLMNT2 account for the majority of time."""
        sim = PerformanceSimulator(
            kochi, decomp16, get_system("aoba-s"), ExecutionConfig()
        )
        rep = sim.simulate_step()
        total = sum(bd.step_us for bd in rep.breakdowns)
        hot = sum(
            bd.busy_us("NLMASS") + bd.busy_us("NLMNT2")
            for bd in rep.breakdowns
        )
        assert 0.5 < hot / total < 0.85

    def test_runtime_scales_with_steps(self, kochi, decomp16):
        s1 = simulate_run_seconds(
            kochi, decomp16, get_system("aoba-s"), n_steps=1000
        )
        s2 = simulate_run_seconds(
            kochi, decomp16, get_system("aoba-s"), n_steps=2000
        )
        assert s2 == pytest.approx(2 * s1)

    def test_gpu_sharing_requires_mps(self, kochi, decomp16):
        """V-E: the GPU version cannot run with ranks > GPUs."""
        with pytest.raises(ConfigurationError):
            PerformanceSimulator(
                kochi, decomp16, get_system("pegasus-gpu"),
                ExecutionConfig(), n_devices=4,
            )

    def test_cpu_multiplexing_allowed(self, kochi, decomp16):
        t_solo = simulate_run_seconds(
            kochi, decomp16, get_system("squid-cpu"), n_steps=1000
        )
        t_shared = simulate_run_seconds(
            kochi, decomp16, get_system("squid-cpu"), n_steps=1000, n_devices=8
        )
        assert t_shared > t_solo

    def test_cpu_forces_host_comm(self, kochi, decomp16):
        sim = PerformanceSimulator(
            kochi, decomp16, get_system("squid-cpu"),
            ExecutionConfig(comm="gdr_tuned"),
        )
        assert sim.cfg.comm == "host"

    def test_naive_comm_slower_than_gdr(self, kochi, decomp16):
        sys = get_system("pegasus-gpu")
        t = {
            c: simulate_run_seconds(
                kochi, decomp16, sys, ExecutionConfig(comm=c), n_steps=KOCHI_STEPS
            )
            for c in ("naive", "gdr_tuned")
        }
        assert t["naive"] > 1.5 * t["gdr_tuned"]

    def test_wait_times_reflect_imbalance(self, kochi):
        # With a deliberately imbalanced decomposition some rank must wait.
        d = equal_cell_assignment(kochi, 16, split_blocks=False)
        sim = PerformanceSimulator(
            kochi, d, get_system("squid-gpu"), ExecutionConfig()
        )
        rep = sim.simulate_step()
        waits = [
            pt.wait_us
            for bd in rep.breakdowns
            for pt in bd.phases.values()
        ]
        assert max(waits) > 0.0

    def test_mismatched_grid_rejected(self, kochi, decomp16):
        other = build_kochi_grid(seed=99)
        with pytest.raises(ConfigurationError):
            PerformanceSimulator(
                other, decomp16, get_system("aoba-s"), ExecutionConfig()
            )
