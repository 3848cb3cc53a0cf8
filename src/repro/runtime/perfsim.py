"""Discrete-event performance simulation of the full Fig.-2 pipeline.

One simulated time step produces, per rank, the same seven-phase breakdown
the paper reports (Figs. 3, 8): compute phases run through the
stream/queue simulator (launch overheads, async concurrency, CPU cache
model), and exchange phases through the message cost model (protocol
selection, staging, NIC sharing) with neighbor-wait semantics — a rank
cannot complete an exchange before its partners have produced the data.

Because the schedule is static, the six-hour forecast runtime is the
simulated step time multiplied by the step count (108 000 for the Kochi
model).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.constants import KOCHI_STEPS
from repro.errors import ConfigurationError
from repro.grid.hierarchy import NestedGrid
from repro.hw.cache import WORKING_SET_BYTES_PER_CELL
from repro.hw.platform import SystemSpec
from repro.hw.registry import cache_model_for
from repro.hw.streams import LaunchMode, StreamSimulator
from repro.nesting.interp import child_boundary_segments
from repro.nesting.restrict import restriction_region
from repro.par.decomposition import Decomposition
from repro.par.protocol import ProtocolConfig, message_time
from repro.par.timing import MessageCostModel
from repro.runtime.breakdown import (
    PhaseTime,
    RankBreakdown,
)
from repro.runtime.launch import ExecutionConfig, build_routine_kernels

#: Bytes per transmitted value (the production code is single precision).
VALUE_BYTES = 4.0

#: Ghost-layer depth exchanged by the PTP routines.
HALO_ROWS = 2

#: Host-side serial packing bandwidth of the naive implementation [GB/s]:
#: a scalar Fortran loop with a loop-carried counter gathering strided
#: 2-D regions (tens of millions of elements per second).
NAIVE_HOST_PACK_BW = 0.5

#: The naive implementation copies boundary *regions* (strided rows)
#: between host and device rather than packed buffers, inflating the PCIe
#: traffic and transaction count.
NAIVE_STAGING_FACTOR = 2.0

#: Intra-node transfer parameters (NVLink / shared memory).
INTRA_NODE_BW_GBS = 50.0
INTRA_NODE_LATENCY_US = 3.0

#: Fixed device time of a boundary pack/unpack kernel [us] — much smaller
#: than a solver kernel's ramp (tiny grid, no spills).
PACK_KERNEL_FIXED_US = 12.0

#: Host-side bookkeeping per posted message (MPI_Isend/Irecv + waitall
#: share) [us].
PER_MESSAGE_HOST_US = 1.0


@dataclass
class StepReport:
    """Timing of one simulated step."""

    breakdowns: list[RankBreakdown]
    step_us: float

    def runtime_seconds(self, n_steps: int = KOCHI_STEPS) -> float:
        return self.step_us * n_steps * 1e-6

    def phase_max_us(self, phase: str) -> float:
        return max(bd.total_us(phase) for bd in self.breakdowns)


class PerformanceSimulator:
    """Simulate the RTi pipeline for one (decomposition, system, config)."""

    def __init__(
        self,
        grid: NestedGrid,
        decomp: Decomposition,
        system: SystemSpec,
        cfg: ExecutionConfig | None = None,
        n_devices: int | None = None,
    ) -> None:
        if decomp.grid is not grid:
            raise ConfigurationError("decomposition does not match the grid")
        self.grid = grid
        self.decomp = decomp
        self.system = system
        self.cfg = cfg or ExecutionConfig()
        self.platform = system.platform

        # MPI ranks may be multiplexed onto fewer devices than ranks (the
        # paper tunes the process count per system; ranks sharing a device
        # split its bandwidth).  GPUs cannot be shared without MPS/MIG,
        # "both of which are unavailable on Pegasus and SQUID" (V-E).
        self.n_devices = decomp.n_ranks if n_devices is None else n_devices
        if self.n_devices < 1:
            raise ConfigurationError("n_devices must be >= 1")
        self._rpd = -(-decomp.n_ranks // self.n_devices)  # ranks per device
        if self._rpd > 1 and self.platform.kind == "gpu":
            raise ConfigurationError(
                "cannot run more MPI ranks than GPUs: sharing a GPU "
                "requires MPS or MIG (unavailable on SQUID and Pegasus)"
            )
        if self.platform.kind != "gpu" and self.cfg.comm != "host":
            # CPU and VE runs always use plain host MPI.
            object.__setattr__(self.cfg, "_", None)  # no-op, keep frozen
            self.cfg = ExecutionConfig(
                launch=self.cfg.launch,
                n_queues=1,
                merged_kernels=self.cfg.merged_kernels,
                comm="host",
            )

        node = system.node
        ranks_per_node = min(
            node.devices_per_node * self._rpd, decomp.n_ranks
        )
        nic_sharing = max(1.0, ranks_per_node / node.nics_per_node)
        self.cost_model = MessageCostModel(
            nic_latency_us=node.nic_latency_us,
            nic_bw_gbs=node.nic_bw_gbs / nic_sharing,
            pcie_latency_us=node.pcie_latency_us,
            pcie_bw_gbs=node.pcie_bw_gbs,
        )
        if self.cfg.comm == "gdr_tuned":
            self.protocol = ProtocolConfig(proto_auto=True, nic_affinity=True)
        else:
            self.protocol = ProtocolConfig(
                proto_auto=system.proto_auto_default,
                nic_affinity=system.nic_affinity_default,
            )

        # Per-rank effective-bandwidth scale: device sharing plus the CPU
        # cache model (the working set that competes for a socket's L3 is
        # the union of the ranks running on that socket).
        cache = cache_model_for(self.platform)
        device_cells: dict[int, int] = defaultdict(int)
        for rw in decomp.ranks:
            device_cells[self._device_of(rw.rank)] += rw.n_cells
        self._bw_scale: dict[int, float] = {}
        for rw in decomp.ranks:
            share = 1.0 / self._rpd
            if cache is None:
                self._bw_scale[rw.rank] = share
            else:
                ws = (
                    device_cells[self._device_of(rw.rank)]
                    * WORKING_SET_BYTES_PER_CELL
                )
                self._bw_scale[rw.rank] = share * cache.bw_scale(
                    ws, self.platform.effective_bw_gbs
                )

        self._ownership = self._build_ownership()
        self._rects = self._build_rects()
        self._ptp_edges = self._build_ptp_edges()
        self._jnz_edges = self._build_jnz_edges()
        self._jnq_edges = self._build_jnq_edges()

    # ------------------------------------------------------------------
    # Static topology
    # ------------------------------------------------------------------

    def _build_ownership(self) -> dict[int, list[tuple[int, int, int]]]:
        """block_id -> [(local row0, row1, rank)] sorted by row."""
        owner: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        for rw in self.decomp.ranks:
            for it in rw.items:
                owner[it.block.block_id].append((it.row0, it.row1, rw.rank))
        for spans in owner.values():
            spans.sort()
        return dict(owner)

    def _owners(
        self, block_id: int, r0: int, r1: int
    ) -> list[tuple[int, int, int]]:
        """Owners of local rows [r0, r1) of a block: (row0, row1, rank)."""
        out = []
        for s0, s1, rank in self._ownership[block_id]:
            lo, hi = max(r0, s0), min(r1, s1)
            if lo < hi:
                out.append((lo, hi, rank))
        return out

    def _build_rects(self) -> dict[int, list[tuple[int, int, int, int, int]]]:
        """rank -> [(level, x0, y0, x1, y1)] in level-global cells."""
        rects: dict[int, list[tuple[int, int, int, int, int]]] = defaultdict(
            list
        )
        for rw in self.decomp.ranks:
            for it in rw.items:
                b = it.block
                rects[rw.rank].append(
                    (
                        b.level,
                        b.gi0,
                        b.gj0 + it.row0,
                        b.gi1,
                        b.gj0 + it.row1,
                    )
                )
        return dict(rects)

    def _build_ptp_edges(self) -> list[tuple[int, int, int]]:
        """Intra-level halo edges: (sender, receiver, boundary cells).

        Each edge appears in both directions (the exchange is symmetric).
        """
        edges: list[tuple[int, int, int]] = []
        ranks = list(self.decomp.ranks)
        for a_pos, ra in enumerate(ranks):
            for rb in ranks[a_pos + 1 :]:
                # Seams are matched per rectangle (ranks may span levels
                # in the sub-5-rank fallback decomposition).
                seam = 0
                for (la, ax0, ay0, ax1, ay1) in self._rects[ra.rank]:
                    for (lb, bx0, by0, bx1, by1) in self._rects[rb.rank]:
                        if la != lb:
                            continue
                        if ax1 == bx0 or bx1 == ax0:  # vertical seam
                            seam += max(
                                0, min(ay1, by1) - max(ay0, by0)
                            )
                        elif ay1 == by0 or by1 == ay0:  # horizontal seam
                            seam += max(
                                0, min(ax1, bx1) - max(ax0, bx0)
                            )
                if seam > 0:
                    cells = seam * HALO_ROWS
                    edges.append((ra.rank, rb.rank, cells))
                    edges.append((rb.rank, ra.rank, cells))
        return edges

    def _build_jnz_edges(self) -> list[tuple[int, int, int]]:
        """Child-to-parent restriction edges: (sender, receiver, parent cells)."""
        edges: list[tuple[int, int, int]] = []
        for lvl in self.grid.levels[1:]:
            for child in lvl.blocks:
                for parent in self.grid.parent_blocks_of(child):
                    regions = restriction_region(
                        parent, child, mode="boundary", width=2
                    )
                    for (i0, j0, i1, j1) in regions:
                        width = i1 - i0
                        # Sender spans over child rows, receiver over
                        # parent rows; intersect both row decompositions.
                        for (c0, c1, s_rank) in self._owners(
                            child.block_id,
                            3 * j0 - child.gj0,
                            3 * j1 - child.gj0,
                        ):
                            # Parent rows covered by this child span.
                            pj0 = (child.gj0 + c0) // 3
                            pj1 = -(-(child.gj0 + c1) // 3)
                            for (p0, p1, r_rank) in self._owners(
                                parent.block_id,
                                max(pj0, j0) - parent.gj0,
                                min(pj1, j1) - parent.gj0,
                            ):
                                cells = (p1 - p0) * width
                                if cells > 0:
                                    edges.append((s_rank, r_rank, cells))
        return edges

    def _build_jnq_edges(self) -> list[tuple[int, int, int]]:
        """Parent-to-child flux edges: (sender, receiver, parent faces)."""
        edges: list[tuple[int, int, int]] = []
        for lvl in self.grid.levels[1:]:
            for child in lvl.blocks:
                segments = child_boundary_segments(lvl.blocks, child)
                parents = self.grid.parent_blocks_of(child)
                for side, segs in segments.items():
                    for (lo, hi) in segs:
                        if side in ("W", "E"):
                            face_x = child.gi0 if side == "W" else child.gi1
                            pface = face_x // 3
                            for parent in parents:
                                if not (
                                    parent.gi0 <= pface <= parent.gi1
                                ):
                                    continue
                                plo = max(lo // 3, parent.gj0)
                                phi = min(hi // 3, parent.gj1)
                                if plo >= phi:
                                    continue
                                for (p0, p1, s_rank) in self._owners(
                                    parent.block_id,
                                    plo - parent.gj0,
                                    phi - parent.gj0,
                                ):
                                    crow0 = 3 * (parent.gj0 + p0) - child.gj0
                                    crow1 = 3 * (parent.gj0 + p1) - child.gj0
                                    for (_c0, _c1, r_rank) in self._owners(
                                        child.block_id, crow0, crow1
                                    ):
                                        faces = (
                                            min(_c1, crow1) - max(_c0, crow0)
                                        ) // 3
                                        if faces > 0:
                                            edges.append(
                                                (s_rank, r_rank, faces)
                                            )
                        else:
                            face_y = child.gj0 if side == "S" else child.gj1
                            pface = face_y // 3
                            child_row = 0 if side == "S" else child.ny - 1
                            recv = self._owners(
                                child.block_id, child_row, child_row + 1
                            )
                            if not recv:
                                continue
                            r_rank = recv[0][2]
                            for parent in parents:
                                if not (
                                    parent.gj0 <= pface <= parent.gj1
                                ):
                                    continue
                                plo = max(lo // 3, parent.gi0)
                                phi = min(hi // 3, parent.gi1)
                                if plo >= phi:
                                    continue
                                prow = min(
                                    max(pface - parent.gj0, 0),
                                    parent.ny - 1,
                                )
                                send = self._owners(
                                    parent.block_id, prow, prow + 1
                                )
                                if send:
                                    edges.append(
                                        (send[0][2], r_rank, phi - plo)
                                    )
        return edges

    # ------------------------------------------------------------------
    # Cost primitives
    # ------------------------------------------------------------------

    def _device_of(self, rank: int) -> int:
        return rank // self._rpd

    def _same_node(self, a: int, b: int) -> bool:
        per = self.system.node.devices_per_node
        return self._device_of(a) // per == self._device_of(b) // per

    def _message_us(self, nbytes: float, same_node: bool) -> float:
        """Wall time of one aggregated message."""
        comm = self.cfg.comm
        if comm == "host":
            if same_node:
                return INTRA_NODE_LATENCY_US + 1e-3 * nbytes / INTRA_NODE_BW_GBS
            return self.cost_model.host_time_us(int(nbytes))
        if comm == "naive":
            # Staging through the host happens regardless of locality, and
            # the un-packed strided regions inflate the transfer.
            return self.cost_model.staged_time_us(
                int(nbytes * NAIVE_STAGING_FACTOR)
            )
        # gdr / gdr_tuned
        if same_node:
            return INTRA_NODE_LATENCY_US + 1e-3 * nbytes / INTRA_NODE_BW_GBS
        return message_time(
            int(nbytes), self.cost_model, self.protocol, path="gdr"
        )

    def _send_batch_us(self, msgs: list[float]) -> float:
        """Time for one rank to send several messages (nonblocking, so
        latencies overlap: the largest message's latency is exposed and
        the bandwidth terms serialize on the NIC)."""
        if not msgs:
            return 0.0
        times = [self._message_us(b, sn) for (b, sn) in msgs]
        # Pipelined: pay the longest single message fully, plus the pure
        # wire time of the others, plus per-message host bookkeeping.
        longest = max(times)
        rest = sum(t - min(t, longest) for t in times)  # zero by def
        wire = sum(
            t for t in times
        ) - longest
        # Approximate the overlapped remainder as half its serial cost.
        return longest + 0.5 * wire + PER_MESSAGE_HOST_US * len(times)

    def _pack_us(self, cells: float, rank: int) -> float:
        """Cost of packing (or unpacking) `cells` boundary values.

        One kernel per phase per rank: Listing 6 submits all boundaries of
        all receivers as asynchronous kernels, so their launch overheads
        overlap and only one fixed cost is exposed.
        """
        if cells <= 0:
            return 0.0
        nbytes = cells * 8.0  # read + write per value (fp32)
        if self.cfg.comm == "naive":
            # Serial host loop (Listing 3/5) after a D2H copy of the region.
            return (
                1e-3 * nbytes / NAIVE_HOST_PACK_BW
                + self.cost_model.pcie_copy_us(int(cells * VALUE_BYTES))
            )
        if self.platform.kind == "gpu":
            return PACK_KERNEL_FIXED_US + 1e-3 * nbytes / self.platform.solo_bw_gbs
        # CPU/VE: vectorized copy at memory bandwidth.
        bw = self.platform.effective_bw_gbs * self._bw_scale.get(rank, 1.0)
        return 1e-3 * nbytes / bw

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _compute_phase(
        self, routine: str
    ) -> dict[int, float]:
        """Makespan of one compute routine on every rank [us]."""
        out = {}
        mode = self.cfg.launch if self.platform.kind == "gpu" else LaunchMode.ASYNC
        queues = self.cfg.n_queues if self.platform.kind == "gpu" else 1
        for rw in self.decomp.ranks:
            sim = StreamSimulator(
                self.platform,
                n_queues=queues,
                mode=mode,
                bw_scale=self._bw_scale[rw.rank],
            )
            sim.submit_all(
                build_routine_kernels(rw, routine, self.platform, self.cfg)
            )
            out[rw.rank] = sim.run().makespan_us
        return out

    def _comm_phase(
        self,
        edges: list[tuple[int, int, int]],
        ready: dict[int, float],
        fields: int,
        breakdowns: dict[int, RankBreakdown],
        phase: str,
        pack_scale: float = 1.0,
    ) -> dict[int, float]:
        """Apply one exchange phase; returns per-rank completion times."""
        # Aggregate per (sender, receiver): the original code packs all
        # boundaries destined to one receiver into a single buffer and
        # sends one message (BUFS(:, NN1) in Listing 6).
        agg: dict[tuple[int, int], int] = defaultdict(int)
        for (s, r, cells) in edges:
            if s != r:
                agg[(s, r)] += cells
        sends: dict[int, list[tuple[float, bool]]] = defaultdict(list)
        pack_cells: dict[int, float] = defaultdict(float)
        unpack_cells: dict[int, float] = defaultdict(float)
        partners: dict[int, set[int]] = defaultdict(set)
        for (s, r), cells in agg.items():
            sends[s].append(
                (cells * VALUE_BYTES * fields, self._same_node(s, r))
            )
            pack_cells[s] += cells * fields * pack_scale
            unpack_cells[r] += cells * fields
            partners[s].add(r)
            partners[r].add(s)
        cost: dict[int, float] = defaultdict(float)
        for rank in set(list(sends) + list(unpack_cells)):
            cost[rank] = (
                self._send_batch_us(sends.get(rank, []))
                + self._pack_us(pack_cells.get(rank, 0.0), rank)
                + self._pack_us(unpack_cells.get(rank, 0.0), rank)
            )
        done = {}
        for rank, base in ready.items():
            sync = max(
                [ready[p] for p in partners.get(rank, ())] + [base]
            )
            done[rank] = sync + cost.get(rank, 0.0)
            breakdowns[rank].phases[phase] = PhaseTime(
                busy_us=cost.get(rank, 0.0), wait_us=sync - base
            )
        return done

    def simulate_step(self) -> StepReport:
        """Time one leap-frog step through the whole pipeline."""
        breakdowns = {
            rw.rank: RankBreakdown(rw.rank) for rw in self.decomp.ranks
        }

        t_nlmass = self._compute_phase("NLMASS")
        clock = {}
        for rank, us in t_nlmass.items():
            breakdowns[rank].phases["NLMASS"] = PhaseTime(busy_us=us)
            clock[rank] = us

        # JNZ packs 3x3 tiles: the pack kernel reads 9 child cells per
        # transmitted parent value.
        clock = self._comm_phase(
            self._jnz_edges, clock, fields=1, breakdowns=breakdowns,
            phase="JNZ", pack_scale=9.0,
        )
        clock = self._comm_phase(
            self._ptp_edges, clock, fields=1, breakdowns=breakdowns,
            phase="PTP_Z",
        )

        t_mnt = self._compute_phase("NLMNT2")
        for rank, us in t_mnt.items():
            breakdowns[rank].phases["NLMNT2"] = PhaseTime(busy_us=us)
            clock[rank] += us

        clock = self._comm_phase(
            self._jnq_edges, clock, fields=1, breakdowns=breakdowns,
            phase="JNQ",
        )
        clock = self._comm_phase(
            self._ptp_edges, clock, fields=2, breakdowns=breakdowns,
            phase="PTP_MN",
        )

        t_out = self._compute_phase("OUTPUT")
        for rank, us in t_out.items():
            breakdowns[rank].phases["OUTPUT"] = PhaseTime(busy_us=us)
            clock[rank] += us

        step_us = max(clock.values())
        ordered = [breakdowns[rw.rank] for rw in self.decomp.ranks]
        return StepReport(ordered, step_us)


def simulate_run_seconds(
    grid: NestedGrid,
    decomp: Decomposition,
    system: SystemSpec,
    cfg: ExecutionConfig | None = None,
    n_steps: int = KOCHI_STEPS,
    n_devices: int | None = None,
) -> float:
    """Total wall time [s] of an *n_steps* forecast run."""
    sim = PerformanceSimulator(grid, decomp, system, cfg, n_devices=n_devices)
    return sim.simulate_step().runtime_seconds(n_steps)
