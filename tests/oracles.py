"""Test oracles: slow, plain implementations the shipped code is checked against.

Like ``tests/reference_kernels.py``, nothing in ``src/repro`` calls these;
each is the independent second computation of a result a test compares:

* :func:`unpack_boundary_naive` / :func:`unpack_irregular_offsets` — the
  receiver sides of the packs in :mod:`repro.xchg.packing` and
  :mod:`repro.xchg.offsets`, element by element;
* :func:`kernel_solo_time_us` — the roofline cost of one lone kernel,
  the makespan :class:`repro.hw.streams.StreamSimulator` must reproduce;
* :func:`utilization_from_events` / :func:`nvml_report` — NVML's GPU
  utilization as an interval union over the simulated events, against the
  simulator's own busy accounting (Fig. 11);
* :func:`validate_chrome_trace` — the trace-event schema the viewers
  rely on;
* :func:`halo_cells` — the cells one water-level exchange moves between
  two neighbours;
* :func:`nonfinite_blocks` — the blocks whose published state holds a
  NaN or an Inf, read field by field;
* :func:`arena_nbytes` — the size of the calling thread's scratch arena,
  which the allocation guards watch.
"""

from __future__ import annotations

import numpy as np

from repro.core import scratch
from repro.errors import CommunicationError
from repro.grid.block import Block
from repro.grid.staggered import NGHOST
from repro.hw.kernelcost import KernelInvocation
from repro.hw.platform import PlatformSpec
from repro.hw.streams import KernelEvent, StreamResult
from repro.xchg.offsets import IrregularRegion, OffsetTable, build_offset_table
from repro.xchg.packing import Region, _region_count


def unpack_boundary_naive(
    buf: np.ndarray, arrays: list[np.ndarray], region: Region
) -> None:
    """Inverse of :func:`repro.xchg.packing.pack_boundary_naive` (in place)."""
    count = _region_count(arrays[0], region)
    if buf.size != len(arrays) * count:
        raise CommunicationError(
            f"buffer size {buf.size} != {len(arrays)} * {count}"
        )
    icnt = 0
    rows = range(*region[0].indices(arrays[0].shape[0]))
    cols = range(*region[1].indices(arrays[0].shape[1]))
    for j in rows:
        for i in cols:
            for k, arr in enumerate(arrays):
                arr[j, i] = buf[icnt + k * count]
            icnt += 1


def unpack_irregular_offsets(
    buf: np.ndarray,
    field: np.ndarray,
    regions: list[IrregularRegion],
    table: OffsetTable | None = None,
    ratio: int = 1,
) -> None:
    """Scatter a packed buffer back into *field* (receiver-side JNZ_RCVWAIT).

    With ``ratio=1`` each buffer element maps to one cell (the parent-side
    receive of already-averaged values).
    """
    if table is None:
        table = build_offset_table(regions, ratio)
    for cells, tiles, at in table.rows:
        vals = buf[at].reshape(tiles[0], tiles[2])
        field[cells] = vals.repeat(ratio, 0).repeat(ratio, 1)


def kernel_solo_time_us(
    kernel: KernelInvocation,
    platform: PlatformSpec,
    bw_scale: float = 1.0,
) -> float:
    """Device time of the kernel running alone (no host overhead).

    ``bw_scale`` rescales the attainable bandwidth (used by the CPU cache
    model, where the effective bandwidth depends on the working set).
    """
    bw = platform.solo_bw_gbs * bw_scale
    return platform.kernel_fixed_us + 1e-3 * kernel.bytes_moved / bw


def utilization_from_events(
    events: list[KernelEvent], makespan_us: float
) -> float:
    """GPU utilization: |union of [start, end)| / makespan."""
    if makespan_us <= 0 or not events:
        return 0.0
    intervals = sorted((e.start_us, e.end_us) for e in events)
    covered = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    covered += cur_hi - cur_lo
    return covered / makespan_us


def nvml_report(result: StreamResult) -> dict[str, float]:
    """Both NVML metrics for one simulated batch."""
    return {
        "gpu_utilization": result.gpu_utilization,
        "memory_utilization": result.memory_utilization,
    }


def validate_chrome_trace(doc: dict) -> list[str]:
    """Schema check for a trace document; returns problems (empty = valid).

    Enforces the trace-event contract the viewers rely on: a
    ``traceEvents`` list, every event carrying ``name``/``ph``/``pid``/
    ``tid``, numeric ``ts`` on all non-metadata events, and a
    non-negative numeric ``dur`` on complete (``X``) events.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["trace document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not an object")
            continue
        for field in ("name", "ph"):
            if field not in ev:
                problems.append(f"event {i} lacks {field!r}")
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                problems.append(f"event {i} lacks integer {field!r}")
        ph = ev.get("ph")
        if ph != "M" and not isinstance(ev.get("ts"), (int, float)):
            problems.append(f"event {i} ({ph}) lacks numeric 'ts'")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i} lacks non-negative 'dur'")
    return problems


def halo_cells(a: Block, b: Block, nghost: int = NGHOST) -> int:
    """Number of cells moved by one z-exchange between two neighbors;
    0 for non-neighbors."""
    if not a.touches(b):
        return 0
    if a.gi1 == b.gi0 or b.gi1 == a.gi0:  # vertical seam
        lo, hi = max(a.gj0, b.gj0), min(a.gj1, b.gj1)
        return 2 * nghost * (hi - lo)
    lo, hi = max(a.gi0, b.gi0), min(a.gi1, b.gi1)
    return 2 * nghost * (hi - lo)


def nonfinite_blocks(states: dict) -> list[int]:
    """Block ids whose prognostic read buffers contain NaN/Inf."""
    return [
        bid for bid, st in states.items()
        if not all(np.isfinite(a).all() for a in (st.z_old, st.m_old, st.n_old))
    ]


def arena_nbytes() -> int:
    """Size of the calling thread's scratch arena (grows, never shrinks)."""
    return scratch._ARENA.buf.nbytes
