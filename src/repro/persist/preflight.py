"""Preflight validation gauntlet: reject doomed inputs before stepping.

An operational forecaster cannot afford to discover a malformed
scenario as a NaN blow-up twenty minutes into a run.  This module
screens a scenario (grid, bathymetry, time step, source, decomposition)
and a run directory *before* any stepping and reports **every** problem
at once as structured :class:`Finding` objects — field, offending
value, violated constraint, and a suggested fix — rather than failing
on the first.

Entry points: :func:`validate_scenario` (a spec dict, as fed to
``repro validate``), :func:`preflight` (already-built collaborators),
and :func:`validate_rundir` (journal/snapshot integrity including the
schema-version check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import (
    CFLError,
    DecompositionError,
    GridError,
    NestingError,
    PersistError,
    ReproError,
    ValidationError,
)
from repro.grid.cfl import cfl_time_step
from repro.grid.staggered import NGHOST

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One actionable preflight diagnostic."""

    code: str  #: stable machine id, e.g. ``"cfl.dt_too_large"``
    severity: str  #: ``"error"`` or ``"warning"``
    field: str  #: which input, e.g. ``"config.dt"``
    value: str  #: the offending value, stringified
    constraint: str  #: the violated constraint, human-readable
    suggestion: str  #: how to fix it

    def __str__(self) -> str:
        tag = self.severity.upper()
        return (
            f"[{tag}] {self.field} = {self.value}: {self.constraint}"
            f" — fix: {self.suggestion}"
        )


@dataclass
class PreflightReport:
    """All findings of one gauntlet pass."""

    findings: list[Finding] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(
        self,
        code: str,
        field_: str,
        value,
        constraint: str,
        suggestion: str,
        severity: str = ERROR,
    ) -> None:
        self.findings.append(
            Finding(
                code=code,
                severity=severity,
                field=field_,
                value=repr(value) if not isinstance(value, str) else value,
                constraint=constraint,
                suggestion=suggestion,
            )
        )

    def raise_if_failed(self) -> None:
        """Raise :class:`~repro.errors.ValidationError` on any error."""
        if not self.ok:
            raise ValidationError(
                f"preflight failed with {len(self.errors)} error(s):\n"
                + "\n".join(str(f) for f in self.errors),
                findings=self.findings,
            )

    def summary(self) -> str:
        lines = [
            f"preflight: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        ]
        lines.extend(str(f) for f in self.findings)
        if self.ok:
            lines.append("preflight: PASS")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Individual checks (each appends findings; never raises on bad input)
# ---------------------------------------------------------------------------


def _sample_level_depth(grid, bathymetry, lvl) -> np.ndarray | None:
    """Concatenated padded depth samples of one level's blocks."""
    g = NGHOST
    fields = []
    for blk in lvl.blocks:
        try:
            d = bathymetry.sample_cells(
                (blk.gi0 - g) * lvl.dx,
                (blk.gj0 - g) * lvl.dx,
                blk.nx + 2 * g,
                blk.ny + 2 * g,
                lvl.dx,
            )
        except Exception:  # noqa: BLE001 - reported as a finding upstream
            return None
        fields.append(np.asarray(d, dtype=float).ravel())
    return np.concatenate(fields) if fields else None


def check_bathymetry(report: PreflightReport, grid, bathymetry) -> None:
    """Depth grid must be finite and hold water somewhere."""
    depth = _sample_level_depth(grid, bathymetry, grid.level(1))
    if depth is None:
        report.add(
            "bathymetry.unsamplable",
            "bathymetry",
            type(bathymetry).__name__,
            "sample_cells() failed on the level-1 footprint",
            "provide a bathymetry covering the whole level-1 domain",
        )
        return
    n_bad = int((~np.isfinite(depth)).sum())
    if n_bad:
        report.add(
            "bathymetry.nonfinite",
            "bathymetry.depth",
            f"{n_bad} NaN/Inf cells",
            "every depth sample must be finite",
            "patch holes in the DEM before running",
        )
    finite = depth[np.isfinite(depth)]
    if finite.size and finite.max() <= 0.0:
        report.add(
            "bathymetry.no_water",
            "bathymetry.depth",
            f"max depth {finite.max():.3g} m",
            "the depth grid is negative (land) everywhere — there is no "
            "water to simulate",
            "check the sign convention: positive depth means water",
        )


def check_cfl(report: PreflightReport, grid, bathymetry, dt: float) -> None:
    """dt must satisfy the CFL bound of every level, with margin."""
    if dt <= 0:
        return  # reported by the config check
    for lvl in grid.levels:
        depth = _sample_level_depth(grid, bathymetry, lvl)
        if depth is None:
            return  # bathymetry finding already covers this
        finite = depth[np.isfinite(depth)]
        h_max = float(finite.max()) if finite.size else 0.0
        if h_max <= 0.0:
            continue
        try:
            dt_max = cfl_time_step(lvl.dx, h_max, safety=1.0)
        except CFLError:
            continue
        if dt > dt_max:
            report.add(
                "cfl.dt_too_large",
                "config.dt",
                f"{dt:g} s",
                f"violates the CFL bound of level {lvl.index} "
                f"(dx={lvl.dx:g} m, h_max={h_max:g} m): dt <= {dt_max:.4g} s",
                f"set dt <= {0.9 * dt_max:.4g} s or coarsen level "
                f"{lvl.index}",
            )
        elif dt > 0.95 * dt_max:
            report.add(
                "cfl.margin_thin",
                "config.dt",
                f"{dt:g} s",
                f"within 5% of the CFL bound of level {lvl.index} "
                f"({dt_max:.4g} s)",
                "leave stability margin for the nonlinear terms",
                severity=WARNING,
            )


def check_source(report: PreflightReport, grid, source) -> None:
    """Source must lie inside the level-1 domain and be plausible."""
    from repro.persist.scenario import domain_extent

    if source is None:
        report.add(
            "source.missing",
            "source",
            "None",
            "no tsunami source configured",
            "add a 'source' entry (gaussian or nankai) to the scenario",
            severity=WARNING,
        )
        return
    ext_x, ext_y = domain_extent(grid)
    segments = source if isinstance(source, (list, tuple)) else [source]
    for k, seg in enumerate(segments):
        x0 = float(getattr(seg, "x0", np.nan))
        y0 = float(getattr(seg, "y0", np.nan))
        label = f"source[{k}]" if len(segments) > 1 else "source"
        if not (np.isfinite(x0) and np.isfinite(y0)):
            report.add(
                "source.nonfinite",
                f"{label}.x0/y0",
                f"({x0}, {y0})",
                "source position must be finite",
                "fix the epicenter coordinates",
            )
            continue
        if not (0.0 <= x0 <= ext_x and 0.0 <= y0 <= ext_y):
            report.add(
                "source.out_of_bounds",
                f"{label}.x0/y0",
                f"({x0:g}, {y0:g}) m",
                f"lies outside the level-1 domain "
                f"[0, {ext_x:g}] x [0, {ext_y:g}] m",
                "place the fault/hump inside the modeled domain",
            )
        amp = getattr(seg, "amplitude", None)
        if amp is not None and abs(float(amp)) > 50.0:
            report.add(
                "source.amplitude_implausible",
                f"{label}.amplitude",
                f"{float(amp):g} m",
                "initial hump beyond 50 m is not a plausible tsunami source",
                "check the units of the amplitude",
            )
        slip = getattr(seg, "slip", None)
        if slip is not None and not 0.0 <= float(slip) <= 100.0:
            report.add(
                "source.slip_implausible",
                f"{label}.slip",
                f"{float(slip):g} m",
                "fault slip must be within [0, 100] m",
                "check the slip magnitude (Okada inputs are meters)",
            )


def check_nesting(report: PreflightReport, grid) -> None:
    """Ratios and alignment on an already-constructed grid."""
    from repro.constants import REFINEMENT_RATIO

    if grid.ratio != REFINEMENT_RATIO:
        report.add(
            "grid.nesting_ratio",
            "grid.ratio",
            grid.ratio,
            f"the RTi scheme nests levels at exactly "
            f"{REFINEMENT_RATIO}:1 (paper Section II-A)",
            f"regenerate the hierarchy with dx_child = dx_parent / "
            f"{REFINEMENT_RATIO}",
        )


def check_decomposition(report: PreflightReport, grid, n_ranks) -> None:
    """The requested rank count must admit a valid decomposition."""
    if n_ranks is None:
        return
    try:
        ranks = int(n_ranks)
    except (TypeError, ValueError, OverflowError):
        ranks = 0
    if ranks < 1:
        report.add(
            "decomp.ranks_nonpositive",
            "ranks",
            n_ranks,
            "rank count must be a whole number >= 1",
            "request at least one rank",
        )
        return
    from repro.par.decomposition import build_decomposition

    try:
        build_decomposition(grid, ranks)
    except (DecompositionError, GridError) as exc:
        report.add(
            "decomp.invalid",
            "ranks",
            ranks,
            f"no valid decomposition: {exc}",
            "choose a rank count compatible with the block structure "
            f"(grid has {grid.n_blocks} blocks)",
        )


def check_rundir(report: PreflightReport, rundir: Path) -> None:
    """Journal readability and snapshot integrity of a run directory.

    Flags schema-version mismatches as errors and checksum-corrupt
    snapshots as warnings when an older valid fallback exists (errors
    when none does).
    """
    from repro.persist.snapshot import SCHEMA_VERSION, read_manifest, verify_snapshot
    from repro.persist.store import RunStore, run_status

    try:
        store = RunStore(rundir, create=False)
    except PersistError as exc:
        report.add(
            "persist.rundir_unreadable",
            "rundir",
            str(rundir),
            str(exc),
            "point at a directory created by 'repro forecast --rundir'",
        )
        return
    warning = store.journal_warning()
    if warning:
        report.add(
            "persist.journal_torn",
            "rundir.journal",
            store.JOURNAL_NAME,
            warning,
            "expected after a crash; the torn tail is ignored on resume",
            severity=WARNING,
        )
    paths = store.snapshot_paths()
    n_valid = 0
    for path in paths:
        try:
            manifest = read_manifest(path)
        except PersistError as exc:
            report.add(
                "persist.snapshot_corrupt",
                f"rundir.snapshots/{path.name}",
                "manifest",
                str(exc),
                "resume will skip this snapshot",
                severity=WARNING,
            )
            continue
        version = int(manifest.get("schema_version", -1))
        if version != SCHEMA_VERSION:
            report.add(
                "persist.schema_version",
                f"rundir.snapshots/{path.name}",
                f"schema_version={version}",
                f"this build reads snapshot schema version "
                f"{SCHEMA_VERSION}",
                "re-run the forecast (or convert the snapshot) with a "
                "matching build",
            )
            continue
        problems = verify_snapshot(path)
        if problems:
            report.add(
                "persist.snapshot_corrupt",
                f"rundir.snapshots/{path.name}",
                "checksum",
                problems[0],
                "resume will fall back to the previous valid snapshot",
                severity=WARNING,
            )
        else:
            n_valid += 1
    if paths and n_valid == 0 and run_status(store.events())[1] is None:
        report.add(
            "persist.no_valid_snapshot",
            "rundir.snapshots",
            f"{len(paths)} snapshot(s), 0 valid",
            "an interrupted run has no restorable snapshot",
            "resume will restart the run from step 0",
        )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def preflight(
    grid=None,
    bathymetry=None,
    config=None,
    source=None,
    n_ranks=None,
    rundir: Path | None = None,
) -> PreflightReport:
    """Run every applicable check over already-built collaborators."""
    report = PreflightReport()
    if grid is not None:
        check_nesting(report, grid)
        if bathymetry is not None:
            check_bathymetry(report, grid, bathymetry)
            if config is not None:
                check_cfl(report, grid, bathymetry, config.dt)
        check_source(report, grid, source)
        check_decomposition(report, grid, n_ranks)
    if rundir is not None:
        check_rundir(report, Path(rundir))
    return report


def validate_scenario(
    spec: dict, rundir: Path | None = None
) -> PreflightReport:
    """Screen a scenario spec dict, collecting every problem.

    Construction failures (invalid config values, non-3:1 nesting,
    overlapping blocks, malformed sources) become findings instead of
    raised exceptions, so a spec with five problems yields five
    findings, not one crash.
    """
    from repro.persist import scenario as sc

    report = PreflightReport()

    def attempt(build, code, field_, value, suggestion):
        """``build()``, or ``None`` and a finding when the builder refuses."""
        try:
            return build()
        except ReproError as exc:
            report.add(code, field_, value, str(exc), suggestion)
            return None

    grid_spec = spec.get("grid", "mini-kochi")
    try:
        grid = sc.build_grid(grid_spec)
    except ReproError as exc:
        grid = None
        if isinstance(exc, NestingError):
            code, fix = "grid.nesting", (
                "use 3:1 refinement with child blocks aligned to and "
                "enclosed by parent cells"
            )
        elif isinstance(exc, GridError) and "overlap" in str(exc):
            code, fix = "grid.overlapping_blocks", (
                "make blocks disjoint within each level"
            )
        elif isinstance(exc, GridError):
            code, fix = "grid.invalid", "fix the grid spec"
        else:
            code, fix = "grid.malformed_spec", (
                "see repro.persist.scenario for the expected format"
            )
        shown = grid_spec if isinstance(grid_spec, str) else "<inline>"
        report.add(code, "grid", shown, str(exc), fix)
    bathymetry = attempt(
        lambda: sc.build_bathymetry(spec.get("bathymetry"), grid_spec),
        "bathymetry.malformed_spec", "bathymetry", spec.get("bathymetry"),
        "use type 'flat', 'sloped' or 'shelf' with its kwargs",
    )
    config = attempt(
        lambda: sc.build_config(spec), "config.invalid", "config",
        {k: spec[k] for k in ("dt", "n_steps", "minutes") if k in spec},
        "use a positive finite dt and a non-negative n_steps or minutes",
    )
    source = None if grid is None else attempt(
        lambda: sc.build_source(spec.get("source"), grid),
        "source.malformed_spec", "source", spec.get("source"),
        "use type 'gaussian' or 'nankai' with its kwargs",
    )

    sub = preflight(
        grid=grid,
        bathymetry=bathymetry,
        config=config,
        source=source,
        n_ranks=spec.get("ranks"),
        rundir=rundir,
    )
    # A source that failed to build is already reported; suppress the
    # duplicate "missing source" warning in that case.
    skip_missing = spec.get("source") is not None and source is None
    for f in sub.findings:
        if skip_missing and f.code == "source.missing":
            continue
        report.findings.append(f)
    return report


def validate_rundir(rundir: Path) -> PreflightReport:
    """Integrity screen of an existing run directory only."""
    report = PreflightReport()
    check_rundir(report, Path(rundir))
    return report
