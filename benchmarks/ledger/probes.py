"""Per-layer probes: every layer measured from outside.

A probe times direct calls into a layer's public functions on the
workload's own state, or reads the spans and counters the program's
public tracer emitted during the workload's traced ops.  Nothing under
``src/`` is patched.

**Blind-probe guard.**  A direct-call probe keeps returning a plausible
number after a refactor stops the workload from calling the probed
function — it would then be timing dead code.  So before probing, one
short op runs under :class:`CallCounter` (``sys.setprofile`` recording
code objects, rank threads included), and every probe first asserts that
its target was called at least once (:func:`require_called`); span-based
probes assert a non-zero span count the same way.  A tripped guard raises
:class:`BlindProbeError` and fails the benchmark: retarget or retire the
probe in a change of its own.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
import tracemalloc

from metrics import BY_NAME, PER_LAYER, PHASES


class BlindProbeError(RuntimeError):
    """A probe's target is no longer exercised by the workload."""


class CallCounter:
    """Record every code object called while active, on all threads."""

    def __init__(self) -> None:
        self.seen: set = set()

    def _profile(self, frame, event, _arg) -> None:
        if event == "call":
            self.seen.add(frame.f_code)

    def __enter__(self) -> "CallCounter":
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *_exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)


def require_called(guard: CallCounter, metric: str, *functions) -> None:
    for f in functions:
        if f.__code__ not in guard.seen:
            raise BlindProbeError(
                f"{metric}: the workload no longer calls "
                f"{f.__module__}.{f.__qualname__} — the probe would be blind"
            )


def require_spans(count: int, metric: str, span_name: str) -> None:
    if count == 0:
        raise BlindProbeError(
            f"{metric}: the traced ops emitted no {span_name!r} span — "
            "the probe would be blind"
        )


def per_call_us(fn, reps: int, batches: int = 5) -> float:
    """Median over *batches* of the mean wall of *reps* calls [µs]."""
    out = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        out.append((time.perf_counter() - t0) / reps * 1e6)
    return statistics.median(out)


# ---------------------------------------------------------------------------
# Direct-call probes
# ---------------------------------------------------------------------------


def _block_kernels_us(model, bid: int, with_output: bool) -> tuple:
    """Per-call µs of (nlmass, nlmnt2, output update) on one block."""
    from repro.core.mass import nlmass
    from repro.core.momentum import nlmnt2

    cfg, st = model.config, model.states[bid]
    reps = 2 if st.block.n_cells > 100_000 else 20
    mass = per_call_us(lambda: nlmass(
        st.z_old, st.m_old, st.n_old, st.hz, cfg.dt, st.dx,
        out=st.z_new, dry_threshold=cfg.dry_threshold), reps)
    momentum = per_call_us(lambda: nlmnt2(
        st.z_new, st.m_old, st.n_old, st.hz, cfg.dt, st.dx, cfg.manning,
        out_m=st.m_new, out_n=st.n_new, nonlinear=cfg.nonlinear,
        dry_threshold=cfg.dry_threshold, velocity_cap=cfg.velocity_cap),
        reps)
    output = 0.0
    if with_output:
        acc = model.outputs[bid]
        output = per_call_us(lambda: acc.update(
            st.z_new, st.m_new, st.n_new, st.hz, model.time,
            dry_threshold=cfg.dry_threshold), reps)
    return mass, momentum, output


def core_kernels(model, guard: CallCounter, with_output: bool) -> dict:
    """ns per cell of the kernels, over every block of the workload."""
    from repro.core.mass import nlmass
    from repro.core.momentum import nlmnt2
    from repro.core.outputs import OutputAccumulator

    require_called(guard, "core.nlmass_ns_per_cell", nlmass)
    require_called(guard, "core.nlmnt2_ns_per_cell", nlmnt2)
    if with_output:
        require_called(guard, "core.output_update_ns_per_cell",
                       OutputAccumulator.update)
    cells = sum(st.block.n_cells for st in model.states.values())
    mass, momentum, output = (
        sum(us) * 1e3 / cells
        for us in zip(*(_block_kernels_us(model, bid, with_output)
                        for bid in model.states))
    )
    out = {"core.nlmass_ns_per_cell": mass,
           "core.nlmnt2_ns_per_cell": momentum}
    if with_output:
        out["core.output_update_ns_per_cell"] = output
    return out


def core_steps(model, guard: CallCounter, n_steps: int) -> dict:
    """``RTiModel.step`` timed from outside, then its transient memory."""
    from repro.core.model import RTiModel

    require_called(guard, "core.step_ms_p50", RTiModel.step)
    walls = []
    for _ in range(n_steps):
        t0 = time.perf_counter()
        model.step()
        walls.append((time.perf_counter() - t0) * 1e3)
    walls.sort()
    transient = []
    tracemalloc.start()
    try:
        model.step()  # allocator warm under tracing
        for _ in range(3):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            model.step()
            _, peak = tracemalloc.get_traced_memory()
            transient.append(peak - before)
    finally:
        tracemalloc.stop()
    return {
        "core.step_ms_p50": statistics.median(walls),
        "core.step_ms_p99": walls[min(len(walls) - 1,
                                      int(0.99 * len(walls)))],
        "core.transient_bytes_per_step": statistics.median(transient),
    }


def nesting_and_halo(model, guard: CallCounter) -> dict:
    """Restriction, interpolation and in-process seams of a nested grid."""
    from repro.nesting.interp import (
        child_boundary_segments,
        interpolate_fluxes,
    )
    from repro.nesting.restrict import restrict_eta
    from repro.xchg.halo import exchange_halo
    from repro.xchg.specs import seam_copy_specs

    require_called(guard, "nesting.restrict_us_per_call", restrict_eta)
    require_called(guard, "nesting.interp_us_per_call", interpolate_fluxes)
    require_called(guard, "xchg.exchange_halo_us_per_seam", exchange_halo)
    require_called(guard, "xchg.seam_specs_us_per_pair", seam_copy_specs)
    cfg, grid, states = model.config, model.grid, model.states
    links = [
        (states[p.block_id], states[c.block_id],
         child_boundary_segments(lvl.blocks, c))
        for lvl in grid.levels[1:] for c in lvl.blocks
        for p in grid.parent_blocks_of(c)
    ]
    seams = [(states[a.block_id], states[b.block_id])
             for lvl in grid.levels for a, b in lvl.neighbor_pairs()]

    def restrict_all():
        for parent, child, _ in links:
            restrict_eta(parent.z_new, child.z_new, parent.block,
                         child.block, mode=cfg.restriction,
                         width=cfg.restriction_width, parent_h=parent.hz)

    def interp_all():
        for parent, child, segs in links:
            interpolate_fluxes(parent.m_new, parent.n_new, child.m_new,
                               child.n_new, parent.block, child.block, segs)

    def exchange_all():
        for a, b in seams:
            exchange_halo(a, b, "z")

    def specs_all():
        for a, b in seams:
            seam_copy_specs(a.block, b.block)

    return {
        "nesting.restrict_us_per_call":
            per_call_us(restrict_all, 50) / len(links),
        "nesting.interp_us_per_call":
            per_call_us(interp_all, 50) / len(links),
        "xchg.exchange_halo_us_per_seam":
            per_call_us(exchange_all, 50) / len(seams),
        "xchg.seam_specs_us_per_pair":
            per_call_us(specs_all, 50) / len(seams),
    }


def pack_unpack(wl, guard: CallCounter) -> dict:
    """Pack and unpack of every seam message that crosses ranks."""
    from repro.xchg.packing import (
        pack_boundary_offsets,
        unpack_boundary_offsets,
    )
    from repro.xchg.specs import seam_copy_specs

    require_called(guard, "xchg.pack_us_per_msg", pack_boundary_offsets)
    require_called(guard, "xchg.unpack_us_per_msg", unpack_boundary_offsets)
    owner = wl.decomp.owner_map()
    states = wl.model.states
    field = {"z": "z_new", "m": "m_new", "n": "n_new"}
    msgs = [
        (getattr(states[s.src_block], field[s.field]), s.src,
         getattr(states[s.dst_block], field[s.field]), s.dst)
        for lvl in wl.grid.levels for a, b in lvl.neighbor_pairs()
        for s in seam_copy_specs(a, b)
        if owner[s.src_block] != owner[s.dst_block]
    ]
    bufs = [pack_boundary_offsets([src], sreg) for src, sreg, _, _ in msgs]

    def pack_all():
        for src, sreg, _, _ in msgs:
            pack_boundary_offsets([src], sreg)

    def unpack_all():
        for buf, (_, _, dst, dreg) in zip(bufs, msgs):
            unpack_boundary_offsets(buf, [dst], dreg)

    return {
        "xchg.pack_us_per_msg": per_call_us(pack_all, 50) / len(msgs),
        "xchg.unpack_us_per_msg": per_call_us(unpack_all, 50) / len(msgs),
    }


def guards(model, guard: CallCounter) -> dict:
    """Each default guard's cost per invocation on the forecast's state."""
    from repro.obs.physics import PhysicsSampler
    from repro.resilience.checkpoint import CheckpointRing
    from repro.resilience.health import HealthMonitor
    from repro.resilience.integrity import IntegrityMonitor

    require_called(guard, "resilience.health_us_per_check",
                   HealthMonitor.check)
    require_called(guard, "obs.physics_us_per_sample", PhysicsSampler.sample)
    require_called(guard, "resilience.checkpoint_us_per_snapshot",
                   CheckpointRing.snapshot)
    health, sampler = HealthMonitor(), PhysicsSampler()
    ring = CheckpointRing(capacity=4)
    out = {
        "resilience.health_us_per_check":
            per_call_us(lambda: health.check(model), 20),
        "obs.physics_us_per_sample":
            per_call_us(lambda: sampler.sample(model), 20),
        "resilience.checkpoint_us_per_snapshot":
            per_call_us(lambda: ring.snapshot(model), 20),
        "resilience.checkpoint_bytes": ring.latest.nbytes,
    }
    # Off by default, so no guard: timed with a real step between checks
    # because the monitor verifies through the leap-frog window.
    integrity = IntegrityMonitor(every=1)
    walls = []
    for _ in range(20):
        model.step()
        t0 = time.perf_counter()
        integrity.after_step(model)
        walls.append((time.perf_counter() - t0) * 1e6)
    out["resilience.integrity_us_per_check"] = statistics.median(walls)
    return out


def bare_model(wl):
    """What every forecast sets up before stepping, no guard armed."""
    from repro.core import RTiModel

    model = RTiModel(wl.mk.grid, wl.mk.bathymetry, wl.config)
    model.set_initial_condition(wl.source)
    return model


def service_layer(wl, guard: CallCounter, misses, hits) -> dict:
    """The service's own share of a request, and its admission path."""
    from repro.core import RTiModel
    from repro.service.admission import CostEstimator, project_schedule
    from repro.service.request import ForecastRequest
    from repro.service.service import Ticket

    require_called(guard, "service.admission_us",
                   CostEstimator.estimate_raw_s, project_schedule)
    require_called(guard, "service.forecast_setup_ms",
                   RTiModel.__init__, RTiModel.set_initial_condition)
    estimator = wl.service.estimator
    request = ForecastRequest(scenario=wl.probe_scenario,
                              deadline_s=wl.DEADLINE_S)

    def admit():
        ticket = Ticket(request, est_s=estimator.estimate_s(request.scenario))
        project_schedule(0.0, [0.0, 0.0], [ticket])

    walls = [s.wall_s for s in misses]  # as measured: both sides of each
    backend = [s.backend_s for s in misses]  # ratio share one moment
    return {
        "service.backend_share": sum(backend) / sum(walls),
        "service.overhead_us_p50": statistics.median(
            (w - b) * 1e6 for w, b in zip(walls, backend)),
        "service.admission_us": per_call_us(admit, 200),
        "service.forecast_setup_ms":
            per_call_us(lambda: bare_model(wl), 5) / 1e3,
        "service.cache_hit_ratio": len(hits) / (len(hits) + len(misses)),
    }


# ---------------------------------------------------------------------------
# Span-based probes: the program's exported spans from the traced ops
# ---------------------------------------------------------------------------


def step_windows(spans: list[dict]):
    """Yield ``(wall_us, {phase: dur_us})`` per model step, per thread.

    A step runs from the start of its ``NLMASS`` phase span to the end of
    its ``OUTPUT`` span; both step pipelines (``RTiModel.step`` and the
    distributed ``_RankRuntime.step``) emit exactly that vocabulary.
    """
    by_thread: dict = {}
    for s in spans:
        if s["name"] in PHASES:
            by_thread.setdefault(s["tid"], []).append(s)
    for phases in by_thread.values():
        phases.sort(key=lambda s: s["ts_us"])
        start, durs = None, {}
        for s in phases:
            if s["name"] == "NLMASS":
                start, durs = s["ts_us"], {}
            if start is None:
                continue
            durs[s["name"]] = durs.get(s["name"], 0.0) + s["dur_us"]
            if s["name"] == "OUTPUT":
                yield s["ts_us"] + s["dur_us"] - start, durs
                start = None


def step_shares(spans: list[dict], with_kernels: bool) -> dict:
    wall = 0.0
    by_phase = dict.fromkeys(PHASES, 0.0)
    n_steps = 0
    for step_wall, durs in step_windows(spans):
        wall += step_wall
        n_steps += 1
        for name, dur in durs.items():
            by_phase[name] += dur
    require_spans(n_steps, "step.phase_share.*", "NLMASS..OUTPUT")
    out = {f"step.phase_share.{p}": by_phase[p] / wall for p in PHASES}
    out["step.unattributed_share"] = 1.0 - sum(by_phase.values()) / wall
    if with_kernels:
        kernels = [s["dur_us"] for s in spans
                   if s["name"].endswith(".kernel")]
        require_spans(len(kernels), "step.kernel_share", "*.kernel")
        out["step.kernel_share"] = sum(kernels) / wall
        out["step.glue_share"] = (
            1.0 - out["step.kernel_share"] - out["step.phase_share.OUTPUT"]
        )
    return out


def par_layer(spans: list[dict], halo_bytes: float, n_steps: int,
              n_ranks: int) -> dict:
    """Message counts and waits of the traced distributed ops."""
    def total(name):
        found = [s["dur_us"] for s in spans if s["name"] == name]
        require_spans(len(found), "par.*", name)
        return len(found), sum(found)

    n_msgs, _ = total("halo_pack")
    _, recv_us = total("halo_recv")
    total("halo_unpack")
    _, wall_us = total("distributed")
    if halo_bytes <= 0:
        raise BlindProbeError(
            "par.bytes_per_step: repro_halo_bytes_total stayed 0")
    kernel_us: dict = {}
    for s in spans:
        if s["name"] in ("NLMASS", "NLMNT2") and s.get("rank") is not None:
            kernel_us[s["rank"]] = kernel_us.get(s["rank"], 0.0) + s["dur_us"]
    return {
        "par.msgs_per_step": n_msgs / n_steps,
        "par.bytes_per_step": halo_bytes / n_steps,
        "par.recv_wait_share": recv_us / (n_ranks * wall_us),
        "par.rank_imbalance":
            max(kernel_us.values()) / statistics.mean(kernel_us.values()),
    }


def finish(workload: str, values: dict) -> dict:
    """Every declared layer metric: a number where defined, else ``None``.

    A probe that produced nothing for a metric its table row says this
    workload exercises is as blind as one timing dead code.
    """
    out = {}
    for m in PER_LAYER:
        if workload not in m.workloads:
            out[m.name] = None
        elif values.get(m.name) is None:
            raise BlindProbeError(f"{m.name}: no value on {workload}")
        else:
            out[m.name] = values[m.name]
    return out


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _exercised(wl, metric_name: str) -> bool:
    return wl.name in BY_NAME[metric_name].workloads


def _median_s(samples, kind: str) -> float:
    """Median op time at reference machine speed (``wall * speed``)."""
    return statistics.median(
        s.wall_s * s.speed for s in samples if s.kind == kind)


def self_times_us(spans: list[dict]) -> dict:
    """Span self time by name: duration minus what child spans cover.

    Children on other threads (rank threads under ``distributed``) overlap
    each other, so coverage is the union of child intervals, clipped to
    the parent.
    """
    children: dict = {}
    for s in spans:
        if s.get("parent_id") is not None:
            children.setdefault(s["parent_id"], []).append(
                (s["ts_us"], s["ts_us"] + s["dur_us"]))
    out: dict = {}
    for s in spans:
        lo, hi = s["ts_us"], s["ts_us"] + s["dur_us"]
        covered, edge = 0.0, lo
        for a, b in sorted(children.get(s.get("span_id"), ())):
            a, b = max(a, edge), min(b, hi)
            if b > a:
                covered += b - a
                edge = b
        out[s["name"]] = out.get(s["name"], 0.0) + s["dur_us"] - covered
    return out


def collect(wl, guard: CallCounter, untraced, traced, spans, halo_bytes,
            n_traced_rounds: int) -> dict:
    """All layer metrics of one workload's traced run."""
    kind = "miss" if _exercised(wl, "service.backend_share") else "op"
    solve_s = _median_s(untraced, kind)
    values = {f"setup.{k}_ms": wl.setup_ms[k]
              for k in ("import", "build_grid", "model_init")}
    values["obs.trace_overhead_ratio"] = _median_s(traced, kind) / solve_s
    stepped = _exercised(wl, "core.step_ms_p50")
    values.update(step_shares(spans, with_kernels=stepped))
    if stepped:
        values.update(core_steps(wl.model, guard, wl.probe_steps))
    values.update(core_kernels(wl.model, guard, with_output=stepped))
    if _exercised(wl, "nesting.restrict_us_per_call"):
        values.update(nesting_and_halo(wl.model, guard))
        values.update(guards(wl.model, guard))
        values["resilience.guard_tax_ratio"] = solve_s / statistics.median(
            wl.seconds_at_reference(lambda: bare_model(wl).run(wl.steps))
            for _ in range(3))
    if _exercised(wl, "par.msgs_per_step"):
        values.update(pack_unpack(wl, guard))
        values.update(par_layer(spans, halo_bytes,
                                n_traced_rounds * wl.steps, wl.N_RANKS))
        values["par.speedup_vs_1rank"] = statistics.median(
            wl.seconds_at_reference(lambda: wl.op(decomp=wl.decomp_1rank))
            for _ in range(3)) / solve_s
    if _exercised(wl, "service.backend_share"):
        values.update(service_layer(
            wl, guard,
            [s for s in untraced if s.kind == "miss"],
            [s for s in untraced if s.kind == "hit"],
        ))
    return finish(wl.name, values)
