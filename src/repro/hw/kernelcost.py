"""Roofline-style cost of one kernel invocation.

Every kernel in the time loop is memory-bound (the reason the RTi model was
written for vector machines in the first place), so a kernel's device time
is ``bytes_moved / attainable_bandwidth`` plus a fixed per-kernel cost.

``ROUTINE_BYTES_PER_CELL`` holds the *algorithmic* traffic per cell and
step of each routine, counted from the production single-precision code's
array accesses (reads + writes, including the double-buffered stores).
Calibration anchor: on the A100, the paper's NLMNT2 microbenchmark fits
``t = 1.09e-4 us/cell + 46.2 us`` (Fig. 5).  With the A100's attainable
kernel bandwidth (2039 GB/s nominal x 0.88 efficiency x 0.25 solo
fraction = 449 GB/s for a lone kernel), a slope of 1.09e-4 us/cell
corresponds to ``449e9 * 1.09e-10 = 49`` bytes/cell — matching the ~12
single-precision array accesses of one NLMNT2 sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlatformError

#: Algorithmic memory traffic per cell per invocation [bytes], fp32.
#: NLMNT2 here is *one* momentum sweep as in the paper's microbenchmark
#: (the full step runs it for both M and N).
ROUTINE_BYTES_PER_CELL: dict[str, float] = {
    "NLMASS": 24.0,  # read z, m, n, h; write z (5-6 fp32 accesses)
    "NLMNT2": 49.0,  # Fig. 5 calibration (see module docstring)
    "OUTPUT": 28.0,  # read z, m, n, h; read+write 3 accumulators
    "PACK": 8.0,  # read field, write buffer (per boundary cell)
    "UNPACK": 8.0,
}


#: The same linear model measured on the real clock of the reference
#: container (2 vCPU Xeon @ 2.1 GHz, one thread, float64), per executor of
#: ``repro.core``: ``(us per cell, us per call)`` of one ``nlmnt2`` call —
#: *both* sweeps, so halve the slope to set it beside Fig. 5's.  Untraced
#: direct calls at 1x1, 45x90 and 128x128 on stepped beach states (DESIGN.md
#: section 9g, which also has the traced ``balance.calibrate`` fits); the
#: nest's re-measured with its calls prepared (section 9h: 10.8, 105 and
#: 412 us — the intercept was 62).  Per sweep the compiled nest is
#: 1.2e-2 us/cell + 5.4 us on one core, against the A100's 1.09e-4 us/cell +
#: 46.2 us above: a launch here is now the cheaper one.
THIS_BOX_NLMNT2_US: dict[str, tuple[float, float]] = {
    "numpy": (0.063, 120.0),  # the NumPy bodies: 65 ufunc passes a sweep
    "nest": (0.0245, 10.8),  # this box, compiled: loopnest.c via the host cc
}

#: Likewise one ``OutputAccumulator.update`` call (same box, same three block
#: sizes, the two executors alternating in one process pinned to one CPU;
#: the nest's calls prepared: 7.6, 30 and 93 us).  Since the speed is
#: ``sqrt(mc*mc + nc*nc) / D`` the nest calls no libm function per cell.
#: Out of cache the NumPy body's slope grows (19 ns/cell at 768x768) and
#: the nest's barely does (5.8): it streams each array once.
THIS_BOX_OUTPUT_US: dict[str, tuple[float, float]] = {
    "numpy": (0.0123, 28.5),  # 24 ufunc passes and a fill a strip
    "nest": (0.0052, 8.2),  # one row loop; inundation touched on wet land only
}


@dataclass(frozen=True)
class KernelInvocation:
    """One kernel launch: a routine applied to one block (or strip).

    ``solo_fraction`` overrides the platform's per-kernel bandwidth cap;
    the merged kernel of Listing 7 passes 1.0 because the collapsed
    iteration space is large enough to fill the device by itself.
    ``extra_bytes`` accounts for overhead traffic that is not useful work
    (e.g. the padded iterations the collapse introduces).
    """

    routine: str
    cells: int
    label: str = ""
    solo_fraction: float | None = None
    extra_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.routine not in ROUTINE_BYTES_PER_CELL:
            raise PlatformError(f"unknown routine {self.routine!r}")
        if self.cells < 0:
            raise PlatformError("cells must be non-negative")
        if self.solo_fraction is not None and not 0 < self.solo_fraction <= 1:
            raise PlatformError("solo_fraction must be in (0, 1]")
        if self.extra_bytes < 0:
            raise PlatformError("extra_bytes must be non-negative")

    @property
    def bytes_moved(self) -> float:
        return self.cells * ROUTINE_BYTES_PER_CELL[self.routine] + self.extra_bytes
