"""Intra-level halo (ghost) exchange between neighbor blocks.

Implements the data movement of the paper's PTP_Z (water level) and PTP_MN
(discharge fluxes) routines for blocks owned by one caller: ghost layers are
copied directly between the two :class:`BlockState` arrays — on the compiled
nest as one prepared ``moves`` call per field (DESIGN.md §9i).  A seam whose
ends live on two ranks (:func:`repro.core.pipeline.run_step`, over threads or
forked rank processes) moves the *same* regions through pack -> send ->
receive -> unpack; both paths share the index math of
:mod:`repro.xchg.specs`, which is what makes them bitwise identical.

The exchanged range extends into the ghost rows/columns where both padded
arrays cover them; combined with the zero-gradient fill this makes a
split-block run bitwise equal to a monolithic one for full-extent seams
(the 1-D decomposition style the original RTi code uses).
"""

from __future__ import annotations

from repro.core import loopnest
from repro.errors import CommunicationError
from repro.grid.block import Block
from repro.grid.staggered import NGHOST
from repro.xchg.specs import seam_copy_specs


def halo_cells(a: Block, b: Block, nghost: int = NGHOST) -> int:
    """Number of cells moved by one z-exchange between two neighbors.

    Used by the communication-volume model; returns 0 for non-neighbors.
    """
    if not a.touches(b):
        return 0
    if a.gi1 == b.gi0 or b.gi1 == a.gi0:  # vertical seam
        lo, hi = max(a.gj0, b.gj0), min(a.gj1, b.gj1)
        return 2 * nghost * (hi - lo)
    lo, hi = max(a.gi0, b.gi0), min(a.gi1, b.gi1)
    return 2 * nghost * (hi - lo)


_WRITE_BUFFER = {"z": "z_new", "m": "m_new", "n": "n_new"}


def exchange_halo(state_a, state_b, which: str, nghost: int = NGHOST) -> None:
    """Exchange ghost layers of one field ('z', 'm' or 'n') between neighbors.

    Operates on the *new* (write) buffers, matching the paper's pipeline
    where exchanges immediately follow the kernel that produced the field.
    """
    if which not in _WRITE_BUFFER:
        raise CommunicationError(f"unknown field {which!r}")
    a, b = state_a.block, state_b.block
    ends = getattr(state_a, _WRITE_BUFFER[which]), getattr(state_b, _WRITE_BUFFER[which])
    call = loopnest.exchange("moves", ends, _seam_moves, a, b, which, nghost)
    if call:
        call.fn(*call.table)
        return
    arrays = {a.block_id: ends[0], b.block_id: ends[1]}
    for spec in seam_copy_specs(a, b, nghost):
        if spec.field == which:
            arrays[spec.dst_block][spec.dst] = arrays[spec.src_block][spec.src]


def _seam_moves(a: Block, b: Block, which: str, nghost: int):
    """One field's copies of the seam, in apply order, as moves on the two
    ends' arrays (a's first)."""
    end = {a.block_id: 0, b.block_id: 1}
    return [
        loopnest.copy(end[spec.dst_block], spec.dst, end[spec.src_block], spec.src)
        for spec in seam_copy_specs(a, b, nghost)
        if spec.field == which
    ], None
