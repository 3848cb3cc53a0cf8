"""Boundary-data movement: halo exchange and message packing.

* :mod:`repro.xchg.halo` — intra-level ghost exchange between neighbor
  blocks (the physics behind the paper's PTP_Z / PTP_MN routines);
* :mod:`repro.xchg.packing` — message packing/unpacking, in both the
  original loop-carried form (Listings 3, 5) and the parallel
  offset-computed form (Listings 4, 6) the paper migrates to;
* :mod:`repro.xchg.offsets` — pre-computed offset tables for irregular
  boundary sets (the JNZ_BUFS_OFS mechanism of Listing 6).
"""

from repro.xchg.halo import exchange_halo
from repro.xchg.packing import (
    pack_boundary_naive,
    pack_boundary_offsets,
    unpack_boundary_offsets,
)
from repro.xchg.offsets import OffsetTable, build_offset_table

__all__ = [
    "exchange_halo",
    "pack_boundary_naive",
    "pack_boundary_offsets",
    "unpack_boundary_offsets",
    "OffsetTable",
    "build_offset_table",
]
