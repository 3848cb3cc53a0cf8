"""CPU last-level-cache model behind the super-linear scaling of Fig. 15.

The paper measured (with LIKWID) L3 miss rates of 33 %, 14 % and 3 % on 8,
16 and 32 SQUID CPU sockets — as ranks are added, each socket's working
set shrinks toward its L3, DRAM traffic collapses, and the code becomes
"cache-bandwidth-bound", producing super-linear speedup.

:class:`CacheModel` interpolates the measured miss rates against the
working-set/L3 ratio (log-log piecewise-linear, clamped to [0, 1]) and
converts a miss rate into an effective-bandwidth scale factor

``1 / t_byte``, with ``t_byte = miss/dram_bw + (1 - miss)/l3_bw``.

The anchors are the paper's own measurements; provenance is kept in
``MEASURED_MISS_ANCHORS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import PlatformError

#: LIKWID-measured (working_set / L3) -> miss-rate anchors (Section V-E).
#: SQUID CPU node: Xeon 8368, 57 MB L3 per socket; working set per socket
#: = 47.2M cells * ~72 B/cell / n_sockets (fp32 production arrays,
#: double-buffered): 8 sockets -> ~425 MB (ratio 7.5), 16 -> 3.7, 32 -> 1.9.
MEASURED_MISS_ANCHORS: tuple[tuple[float, float], ...] = (
    (1.87, 0.03),
    (3.73, 0.14),
    (7.46, 0.33),
)

#: Footprint per cell [bytes] used to derive a rank's working set (fp32
#: state arrays, double buffered, plus depth and accumulators).
WORKING_SET_BYTES_PER_CELL: float = 72.0


@dataclass(frozen=True)
class CacheModel:
    """Effective-bandwidth model for one CPU socket.

    Parameters
    ----------
    l3_mb:
        Last-level cache per socket [MB].
    dram_bw_gbs:
        DRAM bandwidth per socket [GB/s].
    l3_bw_gbs:
        L3 bandwidth per socket [GB/s].
    """

    l3_mb: float
    dram_bw_gbs: float
    l3_bw_gbs: float
    anchors: tuple[tuple[float, float], ...] = MEASURED_MISS_ANCHORS

    def __post_init__(self) -> None:
        if self.l3_mb <= 0 or self.dram_bw_gbs <= 0 or self.l3_bw_gbs <= 0:
            raise PlatformError("cache model parameters must be positive")

    def miss_rate(self, working_set_bytes: float) -> float:
        """L3 miss rate for a given per-socket working set."""
        ratio = working_set_bytes / (self.l3_mb * 1e6)
        if ratio <= 0:
            return 0.0
        xs = [math.log(r) for r, _m in self.anchors]
        ys = [math.log(m) for _r, m in self.anchors]
        lx = math.log(ratio)
        if lx <= xs[0]:
            slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
            ly = ys[0] + slope * (lx - xs[0])
        elif lx >= xs[-1]:
            slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            ly = ys[-1] + slope * (lx - xs[-1])
        else:
            for k in range(len(xs) - 1):
                if xs[k] <= lx <= xs[k + 1]:
                    w = (lx - xs[k]) / (xs[k + 1] - xs[k])
                    ly = ys[k] + w * (ys[k + 1] - ys[k])
                    break
        return min(1.0, math.exp(ly))

    def effective_bw_gbs(self, working_set_bytes: float) -> float:
        """Blended DRAM/L3 bandwidth for the working set."""
        miss = self.miss_rate(working_set_bytes)
        t_byte = miss / self.dram_bw_gbs + (1.0 - miss) / self.l3_bw_gbs
        return 1.0 / t_byte

    def bw_scale(self, working_set_bytes: float, nominal_bw_gbs: float) -> float:
        """Scale factor to apply to a platform's nominal bandwidth."""
        return self.effective_bw_gbs(working_set_bytes) / nominal_bw_gbs
