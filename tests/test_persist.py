"""Tests for the durable run store (repro.persist).

Covers the on-disk building blocks: checksummed array round-trips
(including a Hypothesis property across dtypes and shapes), atomic
snapshot publication, full-model snapshot/restore bitwise identity,
torn-write and bit-flip detection, the write-ahead journal's torn-tail
tolerance, and the CheckpointRing disk-spill policy.  The end-to-end
kill-and-resume scenarios live in ``tests/test_resume.py``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import RTiModel, SimulationConfig
from repro.errors import PersistError
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.obs.log import ServiceEvent
from repro.persist import (
    SCHEMA_VERSION,
    RunJournal,
    RunStore,
    array_digest,
    grid_fingerprint,
    read_arrays,
    read_journal,
    read_snapshot,
    verify_snapshot,
    write_arrays,
    write_snapshot,
)
from repro.resilience import CheckpointRing
from repro.validation import FlatBathymetry


def tiny_grid() -> NestedGrid:
    return NestedGrid(
        levels=[
            GridLevel(index=1, dx=300.0, blocks=[Block(0, 1, 0, 0, 12, 12)]),
            GridLevel(index=2, dx=100.0, blocks=[Block(1, 2, 9, 9, 12, 12)]),
        ]
    )


def tiny_model(n_steps: int = 0) -> RTiModel:
    model = RTiModel(
        tiny_grid(), FlatBathymetry(depth=50.0), SimulationConfig(dt=1.0)
    )
    model.set_initial_condition(
        GaussianSource(x0=1_800.0, y0=1_800.0, amplitude=1.0, sigma=600.0)
    )
    if n_steps:
        model.run(n_steps)
    return model


def assert_models_bitwise_equal(a: RTiModel, b: RTiModel) -> None:
    assert a.step_count == b.step_count
    assert a.time == b.time
    for bid in a.states:
        sa, sb = a.states[bid].state_arrays(), b.states[bid].state_arrays()
        for key in sa:
            np.testing.assert_array_equal(sa[key], sb[key])
        oa = a.outputs[bid].product_arrays()
        ob = b.outputs[bid].product_arrays()
        for key in oa:
            np.testing.assert_array_equal(oa[key], ob[key])


class TestArrayRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        dtype=st.sampled_from([np.float32, np.float64]),
        shape=st.tuples(
            st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)
        ),
    )
    def test_round_trip_property(self, tmp_path_factory, data, dtype, shape):
        arr = data.draw(
            hnp.arrays(
                dtype,
                shape,
                elements=st.floats(
                    -1e6, 1e6, allow_nan=False, width=32
                ),
            )
        )
        path = tmp_path_factory.mktemp("npz") / "a.npz"
        digests = write_arrays(path, {"a": arr})
        out = read_arrays(path, digests)
        assert out["a"].dtype == arr.dtype
        np.testing.assert_array_equal(out["a"], arr)

    def test_digest_is_dtype_and_shape_sensitive(self):
        a = np.zeros((4, 4), dtype=np.float64)
        assert array_digest(a) != array_digest(a.astype(np.float32))
        assert array_digest(a) != array_digest(a.reshape(2, 8))

    def test_checksum_mismatch_detected(self, tmp_path):
        path = tmp_path / "a.npz"
        digests = write_arrays(path, {"a": np.arange(16.0)})
        digests["a"] = "0" * 64
        with pytest.raises(PersistError, match="checksum mismatch"):
            read_arrays(path, digests)

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "a.npz"
        write_arrays(path, {"a": np.arange(256.0)})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(PersistError):
            read_arrays(path, None)

    def test_missing_key_detected(self, tmp_path):
        path = tmp_path / "a.npz"
        write_arrays(path, {"a": np.arange(4.0)})
        with pytest.raises(PersistError, match="missing arrays"):
            read_arrays(path, {"a": array_digest(np.arange(4.0)), "b": "x"})


class TestSnapshot:
    def test_round_trip_is_bitwise(self, tmp_path):
        model = tiny_model(n_steps=13)
        write_snapshot(model, tmp_path / "snap")
        fresh = tiny_model()
        snap = read_snapshot(tmp_path / "snap", schema_version=SCHEMA_VERSION)
        snap.restore(fresh)
        assert_models_bitwise_equal(model, fresh)

    def test_restore_then_run_matches_uninterrupted(self, tmp_path):
        reference = tiny_model(n_steps=20)
        model = tiny_model(n_steps=8)
        write_snapshot(model, tmp_path / "snap")
        fresh = tiny_model()
        read_snapshot(tmp_path / "snap").restore(fresh)
        fresh.run(12)
        assert_models_bitwise_equal(reference, fresh)

    def test_no_tmp_dir_left_behind(self, tmp_path):
        write_snapshot(tiny_model(n_steps=2), tmp_path / "snap")
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "snap"]
        assert leftovers == []

    def test_existing_destination_refused(self, tmp_path):
        model = tiny_model(n_steps=1)
        write_snapshot(model, tmp_path / "snap")
        with pytest.raises(PersistError, match="already exists"):
            write_snapshot(model, tmp_path / "snap")

    def test_verify_detects_member_bitflip(self, tmp_path):
        model = tiny_model(n_steps=5)
        snapdir = write_snapshot(model, tmp_path / "snap")
        assert verify_snapshot(snapdir) == []
        victim = snapdir / "level_2.npz"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        problems = verify_snapshot(snapdir)
        assert problems and "level_2.npz" in problems[0]

    def test_schema_version_gate(self, tmp_path):
        snapdir = write_snapshot(tiny_model(n_steps=1), tmp_path / "snap")
        mpath = snapdir / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="schema version"):
            read_snapshot(snapdir)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        model = tiny_model(n_steps=3)
        snapdir = write_snapshot(model, tmp_path / "snap")
        other = RTiModel(
            NestedGrid(
                levels=[
                    GridLevel(
                        index=1, dx=300.0, blocks=[Block(0, 1, 0, 0, 15, 12)]
                    )
                ]
            ),
            FlatBathymetry(depth=50.0),
            SimulationConfig(dt=1.0),
        )
        with pytest.raises(PersistError, match="grid_fingerprint"):
            read_snapshot(
                snapdir,
                grid_fingerprint=grid_fingerprint(other.grid, other.config.dtype),
            )

    def test_fingerprint_depends_on_dtype_and_topology(self):
        grid = tiny_grid()
        assert grid_fingerprint(grid, np.float64) != grid_fingerprint(
            grid, np.float32
        )
        assert grid_fingerprint(grid) == grid_fingerprint(tiny_grid())


def line(event: str, **fields) -> ServiceEvent:
    """A record of *event* journaled as it is, with *fields*."""
    return ServiceEvent(None, event, fields=fields)


class TestJournal:
    def test_append_and_read(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record(line("run_start", n_steps=10))
        journal.record(line("checkpoint", step=5))
        events, warning = read_journal(tmp_path / "j.jsonl")
        assert warning is None
        assert [ev["event"] for ev in events] == ["run_start", "checkpoint"]
        assert [ev["seq"] for ev in events] == [1, 2]

    def test_torn_tail_dropped_with_warning(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        journal.record(line("run_start"))
        journal.record(line("checkpoint", step=5))
        with open(path, "a") as fh:
            fh.write('{"seq": 3, "event": "checkpo')  # crash mid-append
        events, warning = read_journal(path)
        assert len(events) == 2
        assert warning is not None and "torn" in warning

    def test_seq_resumes_after_reopen(self, tmp_path):
        path = tmp_path / "j.jsonl"
        RunJournal(path).record(line("run_start"))
        rec = RunJournal(path).record(line("resume"))
        assert rec["seq"] == 2


class TestRunStore:
    def test_layout_and_status(self, tmp_path):
        store = RunStore(tmp_path / "run")
        assert store.status() == "empty"
        store.run_events.emit(line("run_start", n_steps=5))
        assert store.status() == "incomplete"
        store.run_events.emit(line("complete", step=5))
        assert store.status() == "complete"

    def test_save_snapshot_sequences_and_journals(self, tmp_path):
        store = RunStore(tmp_path / "run")
        model = tiny_model(n_steps=4)
        store.save_snapshot(model)
        model.run(4)
        store.save_snapshot(model)
        names = [p.name for p in store.snapshot_paths()]
        assert names == ["ck_00001_step_00000004", "ck_00002_step_00000008"]
        events = [ev["event"] for ev in store.events()]
        assert events == [
            "checkpoint_begin", "checkpoint",
            "checkpoint_begin", "checkpoint",
        ]

    def test_tmp_dirs_ignored(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.save_snapshot(tiny_model(n_steps=2))
        (store.snapshots_dir / ".tmp-ck_00009_step_00000099-1").mkdir()
        assert len(store.snapshot_paths()) == 1

    def test_latest_valid_falls_back_over_corruption(self, tmp_path):
        store = RunStore(tmp_path / "run")
        model = tiny_model()
        for _ in range(3):
            model.run(5)
            store.save_snapshot(model)
        newest = store.snapshot_paths()[-1]
        member = newest / "level_1.npz"
        member.write_bytes(member.read_bytes()[:64])  # torn write
        warnings: list[str] = []
        snap = store.latest_valid_snapshot(warn=warnings.append)
        assert snap is not None and snap.step == 10
        assert len(warnings) == 1 and newest.name in warnings[0]

    def test_latest_valid_none_when_all_corrupt(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.save_snapshot(tiny_model(n_steps=3))
        for path in store.snapshot_paths():
            (path / "manifest.json").write_text("not json")
        assert store.latest_valid_snapshot() is None


class TestCheckpointRingSpill:
    def test_ring_spills_on_cadence(self, tmp_path):
        # The spill cadence is the ring's: every snapshot spills.
        store = RunStore(tmp_path / "run")
        ring = CheckpointRing(capacity=4, store=store)
        model = tiny_model()
        for _ in range(4):
            model.run(3)
            ring.snapshot(model)
        assert ring.taken == ring.spilled == 4
        steps = [
            json.loads((p / "manifest.json").read_text())["step"]
            for p in store.snapshot_paths()
        ]
        assert steps == [3, 6, 9, 12]

    def test_ring_without_store_never_spills(self, tmp_path):
        ring = CheckpointRing(capacity=2)
        model = tiny_model(n_steps=2)
        ring.snapshot(model)
        assert ring.spilled == 0

    def test_spill_failure_raises_persist_error(self, tmp_path):
        store = RunStore(tmp_path / "run")
        ring = CheckpointRing(capacity=2, store=store)
        model = tiny_model(n_steps=2)
        store.snapshots_dir.rmdir()
        store.snapshots_dir.write_text("")  # a file where a dir must be
        with pytest.raises(PersistError):
            ring.snapshot(model)
