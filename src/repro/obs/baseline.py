"""Versioned benchmark baseline store — the observatory's memory.

``repro bench`` runs a short traced mini-Kochi probe several times and
records a **bench document**: per-phase cumulative µs, steps/s, cells/s,
halo traffic, and the simulated queue occupancy of the reference
platform (the Figs. 10–11 configuration).  Documents are stamped with a
schema version, the platform key, and the git revision so a trajectory
of them (``benchmarks/BENCH_obs.json`` per PR, ``benchmarks/baselines/``
per platform) can be compared across time and machines.

The :class:`BaselineStore` keeps one baseline per platform under
``benchmarks/baselines/<platform>.json``.  Saving over an existing
baseline folds the old document's aggregate into a bounded ``history``
list, so a baseline file carries its own provenance trail.  Per-rundir
snapshots (``<rundir>/bench.json``) tie a bench document to the run that
produced it.

The statistical comparison against a baseline lives in
:mod:`repro.obs.regression`; this module only measures and stores.
"""

from __future__ import annotations

import statistics
import subprocess
import time
from pathlib import Path

from repro.artifacts import load_json_artifact, publish_json
from repro.errors import ObservatoryError, PersistError

#: Bench document schema.  Version 1 was the flat single-sample
#: ``repro.bench_obs/1`` snapshot; version 2 adds repeated samples,
#: platform/git provenance, halo bytes, and queue occupancy.
BENCH_SCHEMA = "repro.obs.bench/2"

#: Steps of the default probe run (small: it rides along CI).
DEFAULT_STEPS = 40

#: Default repeated samples per bench document — enough for a median and
#: a MAD, cheap enough for every CI run.
DEFAULT_REPEATS = 3

#: Platform whose simulated queue occupancy is stamped into bench
#: documents (the paper's four-queue A100 configuration).
DEFAULT_PLATFORM = "a100-sxm4"

#: How many prior aggregates a baseline file retains when overwritten.
HISTORY_LIMIT = 10


def git_rev(root: str | Path | None = None) -> str | None:
    """Short git revision of *root* (or the CWD); ``None`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(root) if root else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def parse_injection(spec: str) -> dict[str, float]:
    """Parse ``"NLMNT2:2.0,OUTPUT:1.5"`` into ``{phase: factor}``.

    The injection hook exists so the regression gate itself can be
    exercised end to end: ``repro bench --inject-slowdown NLMNT2:2``
    produces a document whose NLMNT2 phase (and wall time) is scaled as
    if the kernel had regressed 2x.
    """
    out: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        phase, _, factor = part.partition(":")
        if not phase.strip() or not factor:
            raise ObservatoryError(
                f"bad injection {part!r}; expected PHASE:FACTOR"
            )
        try:
            f = float(factor)
        except ValueError:
            raise ObservatoryError(
                f"bad injection factor {factor!r} for {phase!r}"
            ) from None
        if f <= 0:
            raise ObservatoryError("injection factors must be positive")
        out[phase.strip()] = f
    if not out:
        raise ObservatoryError(f"empty injection spec {spec!r}")
    return out


def collect_sample(
    n_steps: int = DEFAULT_STEPS, inject: dict[str, float] | None = None
) -> dict:
    """Run one traced mini-Kochi probe and summarize its telemetry.

    Returns one bench *sample*: wall seconds, steps/s, cells/s, analytic
    halo bytes, and cumulative per-phase µs from the span tracer.  With
    *inject*, the named phases' recorded durations (and the wall time)
    are scaled after measurement — the documented test hook for the
    regression gate.
    """
    import repro.obs as obs
    from repro.core import RTiModel, SimulationConfig
    from repro.fault import GaussianSource
    from repro.runtime.breakdown import BREAKDOWN_PHASES
    from repro.topo import build_mini_kochi
    from repro.xchg.halo import halo_cells

    if n_steps < 1:
        raise ObservatoryError("bench needs at least one step")
    mk = build_mini_kochi()
    model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
    model.set_initial_condition(
        GaussianSource(x0=4_000.0, y0=16_000.0, amplitude=2.0, sigma=2_500.0)
    )
    obs.reset()
    obs.enable()
    try:
        t0 = time.perf_counter()
        model.run(n_steps)
        wall_s = time.perf_counter() - t0
        spans = obs.get_tracer().export()
    finally:
        obs.disable()
        obs.reset()

    phase_us = {p: 0.0 for p in BREAKDOWN_PHASES}
    for s in spans:
        if s["name"] in phase_us:
            phase_us[s["name"]] += s["dur_us"]

    if inject:
        unknown = set(inject) - set(phase_us)
        if unknown:
            raise ObservatoryError(
                f"cannot inject into unknown phases {sorted(unknown)}"
            )
        extra_us = 0.0
        for phase, factor in inject.items():
            extra_us += (factor - 1.0) * phase_us[phase]
            phase_us[phase] *= factor
        wall_s += extra_us * 1e-6

    # Halo traffic of the single-process run, computed analytically from
    # the exchanged seams: one z plus two flux fields, fp32.
    per_step_cells = sum(
        halo_cells(a, b)
        for lvl in model.grid.levels
        for a, b in lvl.neighbor_pairs()
    )
    halo_bytes = per_step_cells * 3 * 4.0 * n_steps

    n_cells = sum(
        st.block.nx * st.block.ny for st in model.states.values()
    )
    return {
        "wall_s": round(wall_s, 6),
        "steps_per_second": (
            round(n_steps / wall_s, 2) if wall_s > 0 else None
        ),
        "cells_per_second": (
            round(n_steps * n_cells / wall_s, 1) if wall_s > 0 else None
        ),
        "halo_bytes": halo_bytes,
        "phase_us": {p: round(v, 1) for p, v in phase_us.items()},
    }


def simulated_queue_occupancy(
    platform_key: str = DEFAULT_PLATFORM, n_queues: int = 4
) -> dict[str, float]:
    """Per-queue busy fractions of a simulated mini-Kochi NLMNT2 batch.

    Deterministic (it runs the stream simulator, not the host), so it
    tracks the *modeled* queue saturation of Figs. 10–11 for the chosen
    platform rather than host noise.
    """
    from repro.hw.kernelcost import KernelInvocation
    from repro.hw.registry import get_platform
    from repro.hw.streams import LaunchMode, StreamSimulator
    from repro.obs.export import queue_occupancy
    from repro.topo import build_mini_kochi

    platform = get_platform(platform_key)
    if platform.kind != "gpu":
        n_queues = 1
    sim = StreamSimulator(platform, n_queues=n_queues, mode=LaunchMode.ASYNC)
    blocks = [
        b for lv in build_mini_kochi().grid.levels for b in lv.blocks
    ]
    sim.submit_all(
        [KernelInvocation("NLMNT2", b.n_cells) for b in blocks]
    )
    res = sim.run()
    occ = queue_occupancy(res.events, res.makespan_us)
    return {str(q): round(v, 4) for q, v in occ.items()}


def flatten_sample(sample: dict) -> dict[str, float]:
    """One sample as a flat ``{metric: value}`` map for comparison.

    Works for both v2 samples and the legacy flat v1 document (which
    carried the same field names at the top level).
    """
    out: dict[str, float] = {}
    for key in ("wall_s", "steps_per_second", "cells_per_second",
                "halo_bytes"):
        v = sample.get(key)
        if v is not None:
            out[key] = float(v)
    for phase, v in (sample.get("phase_us") or {}).items():
        out[f"phase_us.{phase}"] = float(v)
    return out


def samples_of(doc: dict) -> list[dict]:
    """The sample list of a bench document (legacy v1 docs: the doc)."""
    samples = doc.get("samples")
    if isinstance(samples, list) and samples:
        return samples
    return [doc]


def aggregate(samples: list[dict]) -> dict[str, float]:
    """Per-metric medians across a document's samples."""
    flat = [flatten_sample(s) for s in samples]
    out: dict[str, float] = {}
    for metric in sorted({k for f in flat for k in f}):
        xs = [f[metric] for f in flat if metric in f]
        if xs:
            out[metric] = round(statistics.median(xs), 4)
    return out


def run_bench(
    repeats: int = DEFAULT_REPEATS,
    n_steps: int = DEFAULT_STEPS,
    platform_key: str = DEFAULT_PLATFORM,
    inject: dict[str, float] | None = None,
) -> dict:
    """Produce a full bench document (schema ``repro.obs.bench/2``)."""
    if repeats < 1:
        raise ObservatoryError("bench needs at least one repeat")
    from repro.hw.registry import get_platform

    platform = get_platform(platform_key)  # validates the key early
    samples = [collect_sample(n_steps, inject=inject) for _ in range(repeats)]
    doc = {
        "schema": BENCH_SCHEMA,
        "grid": "mini-kochi",
        "platform": platform_key,
        "platform_name": platform.name,
        "git_rev": git_rev(),
        "created_s": round(time.time(), 3),
        "steps": n_steps,
        "repeats": repeats,
        "samples": samples,
        "medians": aggregate(samples),
        "queue_occupancy": simulated_queue_occupancy(platform_key),
    }
    if inject:
        doc["injected_slowdown"] = dict(inject)
    return doc


def write_doc(doc: dict, path: str | Path) -> Path:
    """Atomically publish a bench document as pretty JSON."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return publish_json(path, doc, indent=2, sort_keys=True)


def load_doc(path: str | Path) -> dict:
    """Load a bench document, raising :class:`ObservatoryError` cleanly."""
    try:
        return load_json_artifact(path, what="a bench document")
    except PersistError as exc:
        raise ObservatoryError(str(exc)) from exc


def _summary_of(doc: dict) -> dict:
    return {
        "git_rev": doc.get("git_rev"),
        "created_s": doc.get("created_s"),
        "medians": doc.get("medians") or aggregate(samples_of(doc)),
    }


class BaselineStore:
    """One committed baseline per platform, with bounded history."""

    DEFAULT_ROOT = Path("benchmarks") / "baselines"
    SNAPSHOT_NAME = "bench.json"

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else self.DEFAULT_ROOT

    def path_for(self, platform_key: str) -> Path:
        return self.root / f"{platform_key}.json"

    def exists(self, platform_key: str) -> bool:
        return self.path_for(platform_key).exists()

    def platforms(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def load(self, platform_key: str) -> dict:
        return load_doc(self.path_for(platform_key))

    def save(self, doc: dict) -> Path:
        """Save *doc* as its platform's baseline, folding in history."""
        platform_key = doc.get("platform")
        if not platform_key:
            raise ObservatoryError("bench document lacks a platform stamp")
        path = self.path_for(platform_key)
        history: list[dict] = []
        if path.exists():
            old = load_doc(path)
            history = list(old.get("history") or [])
            history.append(_summary_of(old))
        out = dict(doc)
        out["history"] = history[-HISTORY_LIMIT:]
        return write_doc(out, path)

    def snapshot(self, rundir: str | Path, doc: dict) -> Path:
        """Tie a bench document to the run directory that produced it."""
        rundir = Path(rundir)
        rundir.mkdir(parents=True, exist_ok=True)
        return write_doc(doc, rundir / self.SNAPSHOT_NAME)
