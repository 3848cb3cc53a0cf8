"""Copy specifications for halo seams.

A *copy spec* names a rectangular region of a source block's padded array
and the region of the destination block's padded array it fills.  The
in-process exchange (:mod:`repro.xchg.halo`) applies specs directly; the
distributed driver (:mod:`repro.par.driver`) packs the source region into
a buffer, ships it over MPI, and unpacks into the destination region —
the two paths are bitwise identical by construction because they share
this index math.  A seam's specs depend only on the two frozen blocks, so
they are built once and kept in a static table (the paper's Listing 6:
"the grid organization and domain decomposition are fixed during
runtime"); every later step is a lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import CommunicationError
from repro.grid.block import Block
from repro.grid.staggered import NGHOST
from repro.xchg.offsets import TABLE_ENTRIES

Slices = tuple[slice, slice]


@dataclass(frozen=True)
class CopySpec:
    """One ghost-region copy between two blocks."""

    field: str  # 'z', 'm' or 'n'
    src_block: int
    src: Slices
    dst_block: int
    dst: Slices

    def shape(self) -> tuple[int, int]:
        return (
            self.src[0].stop - self.src[0].start,
            self.src[1].stop - self.src[1].start,
        )


def _vertical_specs(west: Block, east: Block, g: int) -> list[CopySpec]:
    lo = max(west.gj0, east.gj0) - g
    hi = min(west.gj1, east.gj1) + g
    rw = slice(g + lo - west.gj0, g + hi - west.gj0)
    re = slice(g + lo - east.gj0, g + hi - east.gj0)
    nxw = west.nx
    specs = [
        # z: cell-centered columns.
        CopySpec("z", west.block_id, (rw, slice(nxw, nxw + g)),
                 east.block_id, (re, slice(0, g))),
        CopySpec("z", east.block_id, (re, slice(g, 2 * g)),
                 west.block_id, (rw, slice(g + nxw, g + nxw + g))),
        # m: faces strictly left/right of the shared face.
        CopySpec("m", west.block_id, (rw, slice(nxw, nxw + g)),
                 east.block_id, (re, slice(0, g))),
        CopySpec("m", east.block_id, (re, slice(g + 1, 2 * g + 1)),
                 west.block_id, (rw, slice(g + nxw + 1, g + nxw + 1 + g))),
    ]
    # n: one extra face row.
    rwf = slice(rw.start, rw.stop + 1)
    ref = slice(re.start, re.stop + 1)
    specs += [
        CopySpec("n", west.block_id, (rwf, slice(nxw, nxw + g)),
                 east.block_id, (ref, slice(0, g))),
        CopySpec("n", east.block_id, (ref, slice(g, 2 * g)),
                 west.block_id, (rwf, slice(g + nxw, g + nxw + g))),
    ]
    return specs


def _horizontal_specs(south: Block, north: Block, g: int) -> list[CopySpec]:
    lo = max(south.gi0, north.gi0) - g
    hi = min(south.gi1, north.gi1) + g
    cs = slice(g + lo - south.gi0, g + hi - south.gi0)
    cn = slice(g + lo - north.gi0, g + hi - north.gi0)
    nys = south.ny
    specs = [
        CopySpec("z", south.block_id, (slice(g + nys - g, g + nys), cs),
                 north.block_id, (slice(0, g), cn)),
        CopySpec("z", north.block_id, (slice(g, 2 * g), cn),
                 south.block_id, (slice(g + nys, g + nys + g), cs)),
        CopySpec("n", south.block_id, (slice(nys, nys + g), cs),
                 north.block_id, (slice(0, g), cn)),
        CopySpec("n", north.block_id, (slice(g + 1, 2 * g + 1), cn),
                 south.block_id, (slice(g + nys + 1, g + nys + 1 + g), cs)),
    ]
    csf = slice(cs.start, cs.stop + 1)
    cnf = slice(cn.start, cn.stop + 1)
    specs += [
        CopySpec("m", south.block_id, (slice(g + nys - g, g + nys), csf),
                 north.block_id, (slice(0, g), cnf)),
        CopySpec("m", north.block_id, (slice(g, 2 * g), cnf),
                 south.block_id, (slice(g + nys, g + nys + g), csf)),
    ]
    return specs


@lru_cache(maxsize=TABLE_ENTRIES)
def _seam_table(a: Block, b: Block, nghost: int) -> tuple[CopySpec, ...]:
    if not a.touches(b):
        raise CommunicationError(
            f"blocks {a.block_id} and {b.block_id} are not edge neighbors"
        )
    if a.gi1 == b.gi0:
        return tuple(_vertical_specs(a, b, nghost))
    if b.gi1 == a.gi0:
        return tuple(_vertical_specs(b, a, nghost))
    if a.gj1 == b.gj0:
        return tuple(_horizontal_specs(a, b, nghost))
    return tuple(_horizontal_specs(b, a, nghost))


def seam_copy_specs(
    a: Block, b: Block, nghost: int = NGHOST
) -> tuple[CopySpec, ...]:
    """All ghost copies for the seam between two touching blocks.

    A lookup in the static seam table, keyed on the blocks' geometry.
    """
    return _seam_table(a, b, nghost)
