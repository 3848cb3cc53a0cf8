"""End-to-end shape checks against the paper's figures.

These are the reproduction's acceptance tests: each asserts the qualitative
result of one evaluation figure — who wins, where curves saturate or cross
— using the same code paths the benchmark harness runs.
"""

import pytest

from repro.balance.apply import optimized_decomposition
from repro.hw import LaunchMode, StreamSimulator, get_system
from repro.par.decomposition import build_decomposition, equal_cell_assignment
from repro.runtime import (
    ExecutionConfig,
    build_routine_kernels,
    simulate_run_seconds,
)
from repro.topo import build_kochi_grid


@pytest.fixture(scope="module")
def grid():
    return build_kochi_grid()


@pytest.fixture(scope="module")
def fig15(grid):
    """Six-hour runtimes for every system and socket count."""
    out = {}
    for name in ("aoba-s", "squid-cpu", "pegasus-cpu", "squid-gpu", "pegasus-gpu"):
        system = get_system(name)
        row = {}
        for sockets in (4, 8, 16, 32):
            if system.platform.kind == "gpu":
                if sockets < 8:
                    continue
                d = build_decomposition(grid, sockets)
                n_dev = sockets
            else:
                d = build_decomposition(grid, max(sockets, 16))
                n_dev = sockets
            row[sockets] = simulate_run_seconds(
                grid, d, system, ExecutionConfig(), n_devices=n_dev
            )
        out[name] = row
    return out


class TestFig10AsyncQueues:
    def test_speedup_grows_and_saturates(self, grid):
        d = build_decomposition(grid, 16)
        p = get_system("squid-gpu").platform
        speedups = {}
        for rw in d.ranks[3:]:
            ks = build_routine_kernels(rw, "NLMNT2", p, ExecutionConfig())
            sync = StreamSimulator(p, mode=LaunchMode.SYNC)
            sync.submit_all(list(ks))
            t_sync = sync.run().makespan_us
            per_q = {}
            for q in (1, 2, 4, 8):
                sim = StreamSimulator(p, n_queues=q, mode=LaunchMode.ASYNC)
                sim.submit_all(list(ks))
                per_q[q] = t_sync / sim.run().makespan_us
            speedups[rw.rank] = per_q
        for per_q in speedups.values():
            assert per_q[1] > 1.0  # async alone hides launch latency
            assert per_q[4] >= per_q[1]
            # Saturation: beyond 4 queues gains are marginal (<35%),
            # versus the 2-4x gained getting to 4 queues.
            assert per_q[8] <= 1.35 * per_q[4]
        best = max(max(per_q.values()) for per_q in speedups.values())
        assert 2.5 < best < 5.0  # paper: up to 4.0x


class TestFig11Utilization:
    def test_memory_utilization_saturates_at_four_queues(self, grid):
        d = build_decomposition(grid, 16)
        p = get_system("squid-gpu").platform
        rw = max(d.ranks, key=lambda r: r.n_kernels)
        util = {}
        for q in (1, 2, 4, 8):
            sim = StreamSimulator(p, n_queues=q, mode=LaunchMode.ASYNC)
            sim.submit_all(
                build_routine_kernels(rw, "NLMNT2", p, ExecutionConfig())
            )
            util[q] = sim.run().memory_utilization
        assert util[1] < util[2] < util[4]
        assert util[8] <= 1.25 * util[4]

    def test_sync_launch_leaves_gpu_idle(self, grid):
        d = build_decomposition(grid, 16)
        p = get_system("squid-gpu").platform
        rw = max(d.ranks, key=lambda r: r.n_kernels)
        ks = build_routine_kernels(rw, "NLMNT2", p, ExecutionConfig())
        sync = StreamSimulator(p, mode=LaunchMode.SYNC)
        sync.submit_all(list(ks))
        a = StreamSimulator(p, n_queues=1, mode=LaunchMode.ASYNC)
        a.submit_all(list(ks))
        assert sync.run().gpu_utilization < a.run().gpu_utilization


class TestFig12Fig13LoadBalance:
    def nlmnt2_max(self, decomp, platform, cfg):
        times = []
        for rw in decomp.ranks:
            q = 4 if platform.kind == "gpu" else 1
            sim = StreamSimulator(platform, n_queues=q, mode=LaunchMode.ASYNC)
            sim.submit_all(build_routine_kernels(rw, "NLMNT2", platform, cfg))
            times.append(sim.run().makespan_us)
        return max(times)

    def test_gpu_both_methods_improve(self, grid):
        p = get_system("squid-gpu").platform
        base = equal_cell_assignment(grid, 16, split_blocks=False)
        opt = optimized_decomposition(grid, 16, p, iterations=2000)
        t_base = self.nlmnt2_max(base, p, ExecutionConfig())
        t_merge = self.nlmnt2_max(base, p, ExecutionConfig(merged_kernels=True))
        t_opt = self.nlmnt2_max(opt, p, ExecutionConfig())
        assert t_merge < t_base
        assert t_opt < t_base
        # Paper's ordering on the GPU: merged beats the tuned decomposition.
        assert t_merge <= t_opt

    def test_cpu_collapse_degrades(self, grid):
        p = get_system("pegasus-cpu").platform
        base = equal_cell_assignment(grid, 16, split_blocks=False)
        t_base = self.nlmnt2_max(base, p, ExecutionConfig())
        t_merge = self.nlmnt2_max(base, p, ExecutionConfig(merged_kernels=True))
        assert t_merge > t_base  # Fig. 13: padding hurts CPUs


class TestFig14CommOptimization:
    @pytest.fixture(scope="class")
    def runtimes(self, grid):
        out = {}
        for name in ("squid-gpu", "pegasus-gpu"):
            system = get_system(name)
            for sockets in (8, 16, 32):
                d = optimized_decomposition(
                    grid, sockets, system.platform, iterations=1000
                )
                for comm in ("naive", "gdr", "gdr_tuned"):
                    out[(name, sockets, comm)] = simulate_run_seconds(
                        grid, d, system, ExecutionConfig(comm=comm),
                        n_devices=sockets,
                    )
        return out

    def test_gdr_wins_big_at_8_ranks(self, runtimes):
        # Paper: 2.96x on SQUID, 2.95-3.23x on Pegasus.
        for name in ("squid-gpu", "pegasus-gpu"):
            speedup = runtimes[(name, 8, "naive")] / runtimes[(name, 8, "gdr")]
            assert 2.0 < speedup < 6.0

    def test_squid_gdr_benefit_decays_with_scale(self, runtimes):
        sp = {
            s: runtimes[("squid-gpu", s, "naive")]
            / runtimes[("squid-gpu", s, "gdr")]
            for s in (8, 16, 32)
        }
        assert sp[8] > sp[16] > sp[32]

    def test_ucx_tuning_recovers_squid(self, runtimes):
        # Paper: 1.27x at 16 ranks and 1.62x at 32 ranks.
        g16 = runtimes[("squid-gpu", 16, "gdr")] / runtimes[
            ("squid-gpu", 16, "gdr_tuned")
        ]
        g32 = runtimes[("squid-gpu", 32, "gdr")] / runtimes[
            ("squid-gpu", 32, "gdr_tuned")
        ]
        assert 1.1 < g16 < 1.6
        assert 1.2 < g32 < 2.0
        assert g32 > g16

    def test_pegasus_needs_no_tuning(self, runtimes):
        # Paper: newer UCX enables proto selection by default.
        for s in (8, 16, 32):
            ratio = runtimes[("pegasus-gpu", s, "gdr")] / runtimes[
                ("pegasus-gpu", s, "gdr_tuned")
            ]
            assert ratio == pytest.approx(1.0, abs=0.02)


class TestFig15CrossPlatform:
    def test_aoba_4_misses_deadline_marginally(self, fig15):
        assert 600 < fig15["aoba-s"][4] < 800  # paper: 640 s

    def test_cpus_twice_aoba_at_4(self, fig15):
        for cpu in ("squid-cpu", "pegasus-cpu"):
            ratio = fig15[cpu][4] / fig15["aoba-s"][4]
            assert 1.8 < ratio < 3.0  # paper: "twice as slow"

    def test_order_at_8_sockets(self, fig15):
        # Paper: Pegasus GPU fastest, then AOBA-S, then SQUID GPU; all <600.
        assert (
            fig15["pegasus-gpu"][8]
            < fig15["aoba-s"][8]
            < fig15["squid-gpu"][8]
            < 600
        )

    def test_cpus_miss_deadline_at_8(self, fig15):
        assert fig15["squid-cpu"][8] > 600
        assert fig15["pegasus-cpu"][8] > 600

    def test_cpu_superlinear_8_to_16(self, fig15):
        for cpu in ("squid-cpu", "pegasus-cpu"):
            assert fig15[cpu][8] / fig15[cpu][16] > 2.0

    def test_all_under_three_minutes_at_32(self, fig15):
        for name, row in fig15.items():
            assert row[32] < 182

    def test_headline_numbers(self, fig15):
        # "less than 2.5 minutes on 32 SPR CPUs and 1.5 minutes on 32 H100"
        assert fig15["pegasus-cpu"][32] < 155
        assert 70 < fig15["pegasus-gpu"][32] < 112  # paper: 82 s

    def test_gpu_cannot_run_at_4_sockets(self, fig15):
        assert 4 not in fig15["pegasus-gpu"]
        assert 4 not in fig15["squid-gpu"]
