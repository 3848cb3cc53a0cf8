"""One ``Checkpoint`` in every placement: the ring, the disk, a buddy replica.

Each property draws the step count and the placement.  Restoring the
placed checkpoint into a fresh model and stepping on is bitwise an
uninterrupted run, and a bit flipped in any state buffer shows up in
``bad_blocks()`` as exactly that block.

``tests/data/snapshot_v1`` is a run-directory snapshot written by the
schema-1 writer before the disk read returned a ``Checkpoint``, with the
digests of the state that writer's own restore produced
(``expected.json``): the format is unchanged as long as it restores
bitwise.
"""

import json
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import RTiModel, SimulationConfig
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.par.comm import run_ranks
from repro.persist import (
    SCHEMA_VERSION,
    array_digest,
    grid_fingerprint,
    read_snapshot,
    write_snapshot,
)
from repro.persist.snapshot import read_manifest
from repro.resilience import Checkpoint, CheckpointRing, flip_bit
from repro.validation import FlatBathymetry

PLACEMENTS = ("ring", "disk", "replica")
FIXTURE = Path(__file__).parent / "data" / "snapshot_v1"


def model(steps: int = 0, n: int = 12) -> RTiModel:
    """A 2-level nest of two n x n blocks, *steps* into a Gaussian hump."""
    grid = NestedGrid(levels=[
        GridLevel(index=1, dx=300.0, blocks=[Block(0, 1, 0, 0, n, n)]),
        GridLevel(index=2, dx=100.0, blocks=[Block(1, 2, n, n, n, n)]),
    ])
    m = RTiModel(grid, FlatBathymetry(depth=50.0), SimulationConfig(dt=1.0))
    m.set_initial_condition(GaussianSource(
        x0=150.0 * n, y0=150.0 * n, amplitude=1.0, sigma=50.0 * n
    ))
    if steps:
        m.run(steps)
    return m


def placed(placement: str, m: RTiModel, tmp: Path) -> Checkpoint:
    """A checkpoint of *m* as it comes back from *placement*."""
    if placement == "ring":
        ring = CheckpointRing(capacity=2, checksums=True)
        ring.snapshot(m)
        return ring.latest
    if placement == "disk":
        return read_snapshot(write_snapshot(m, tmp / "snap"))
    # A rank's epoch checkpoint as the survivable runtime takes it, shipped
    # to its buddy through the thread world.
    ckpt = Checkpoint.capture(
        m.states, step=m.step_count, time=m.step_count * m.config.dt,
        dt=m.config.dt, digest=True,
    )

    def rank(comm):
        if comm.rank == 0:
            comm.send(ckpt, dest=1, tag=7)
            return None
        return comm.recv(source=0, tag=7)

    return run_ranks(2, rank, timeout=30.0)[1]


def state_doc(m: RTiModel) -> dict:
    """Clock, flips and a digest of every state and product array."""
    doc = {"step": m.step_count, "time": m.time, "dt": m.config.dt,
           "output_every": m.output_every, "blocks": {}}
    for bid in sorted(m.states):
        st_, acc = m.states[bid], m.outputs[bid]
        doc["blocks"][str(bid)] = {
            "flip": st_.flip,
            **{k: array_digest(a) for k, a in st_.state_arrays().items()},
            **{k: array_digest(a) for k, a in acc.product_arrays().items()},
        }
    return doc


@settings(max_examples=15, deadline=None)
@given(
    placement=st.sampled_from(PLACEMENTS),
    before=st.integers(0, 9),
    after=st.integers(1, 6),
)
def test_restore_then_step_is_an_uninterrupted_run(
    tmp_path_factory, placement, before, after
):
    ckpt = placed(placement, model(before), tmp_path_factory.mktemp("ckpt"))
    want = model(before + after)
    got = model()
    ckpt.restore(got)
    got.run(after)
    assert (got.step_count, got.time) == (want.step_count, want.time)
    for bid, st_ in want.states.items():
        for key, a in st_.state_arrays().items():
            assert np.array_equal(got.states[bid].state_arrays()[key], a), key
        if ckpt.outputs is None:
            continue  # a rank checkpoint carries no products
        for key, a in want.outputs[bid].product_arrays().items():
            assert got.outputs[bid].product_arrays()[key].tobytes() == a.tobytes(), key


@settings(max_examples=25, deadline=None)
@given(
    placement=st.sampled_from(PLACEMENTS),
    steps=st.integers(0, 6),
    block=st.sampled_from([0, 1]),
    buf=st.integers(0, 5),
    bit=st.integers(0, 20_000),
)
# A ring entry's m0 buffer of the fine block; a replica's z0 of the coarse.
@example(placement="ring", steps=4, block=1, buf=2, bit=9)
@example(placement="replica", steps=3, block=0, buf=0, bit=3)
def test_flipped_bit_names_exactly_its_block(
    tmp_path_factory, placement, steps, block, buf, bit
):
    ckpt = placed(placement, model(steps), tmp_path_factory.mktemp("ckpt"))
    assert ckpt.bad_blocks() == []
    flip_bit(ckpt.states[block][buf], bit)
    assert ckpt.bad_blocks() == [block]


def test_schema_1_snapshot_restores_bitwise():
    snap = FIXTURE / "snap"
    assert read_manifest(snap)["schema_version"] == SCHEMA_VERSION == 1
    fresh = model(n=6)
    ckpt = read_snapshot(
        snap, grid_fingerprint=grid_fingerprint(fresh.grid, fresh.config.dtype)
    )
    ckpt.restore(fresh)
    want = json.loads((FIXTURE / "expected.json").read_text())
    assert state_doc(fresh) == want
