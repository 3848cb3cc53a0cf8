"""Tests for the ABFT silent-data-corruption defense.

Covers the payload checksum (block and checkpoint digests), the bit-flip
injector, the leap-frog integrity monitor, the checkpoint scrubber's
evict/repair ladder, the quarantine-rollback path through the recovery
engine, the durability (rename + dirsync) regression, and the two
non-negotiables: a run with the layer armed but nothing injected is
bitwise identical to one without it, and the layer costs < 5 % of a
run.  The seeded SDC sweep lives in ``tests/test_chaos_matrix.py``
(marked ``slow``).
"""

import json

import numpy as np
import pytest

from repro.core import RTiModel, SimulationConfig
from repro.errors import IntegrityError, PersistError
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel
from repro.resilience import (
    CheckpointRing,
    FaultPlan,
    FaultSpec,
    flip_bit,
    run_resilient_forecast,
)
from repro.resilience.faultplan import BITFLIP_TARGETS
from repro.resilience.integrity import (
    CLEAN,
    CORRECTED,
    CORRUPTED,
    CheckpointScrubber,
    IntegrityMonitor,
    IntegrityTracker,
    integrity_doc,
    load_integrity_report,
    render_integrity_doc,
    state_checksums,
    write_integrity_json,
)
from repro.validation import FlatBathymetry
from repro.xchg.packing import payload_crc


def nested_grid():
    return NestedGrid(
        [
            GridLevel(index=1, dx=300.0, blocks=[Block(0, 1, 0, 0, 30, 30)]),
            GridLevel(
                index=2, dx=100.0, blocks=[Block(1, 2, 30, 30, 30, 30)]
            ),
        ]
    )


def source():
    return GaussianSource(x0=4500.0, y0=4500.0, amplitude=1.0, sigma=1500.0)


def config():
    return SimulationConfig(dt=1.0, boundary="wall")


def make_model(n_steps: int = 0) -> RTiModel:
    model = RTiModel(nested_grid(), FlatBathymetry(50.0), config())
    model.set_initial_condition(source())
    if n_steps:
        model.run(n_steps)
    return model


# ---------------------------------------------------------------------------
# Bit-flip injector
# ---------------------------------------------------------------------------


class TestFlipBit:
    def test_flip_is_involutive(self):
        arr = np.linspace(-2.0, 2.0, 24).reshape(4, 6)
        ref = arr.copy()
        elem, bit = flip_bit(arr, 13)
        assert not np.array_equal(arr, ref)
        elem2, bit2 = flip_bit(arr, 13)
        assert (elem, bit) == (elem2, bit2)
        np.testing.assert_array_equal(arr, ref)

    def test_flip_mutates_noncontiguous_view_in_place(self):
        base = np.arange(64, dtype=np.float64).reshape(8, 8)
        view = base[::2, 1::3]  # non-contiguous both axes
        ref = base.copy()
        flip_bit(view, 5)
        # The flip must land in the BASE buffer, not a silent copy.
        assert not np.array_equal(base, ref)

    def test_low_bit_flip_is_quiet(self):
        # The threat model: a low-order mantissa flip stays finite and
        # plausible — undetectable by the NaN/blow-up health checks.
        arr = np.full((4, 4), 1.2345)
        flip_bit(arr, 1)
        assert np.isfinite(arr).all()
        assert abs(arr.sum() - 16 * 1.2345) < 1e-6

    def test_bit_index_wraps(self):
        arr = np.ones(3, dtype=np.float32)
        ref = arr.copy()
        nbits = arr.size * arr.dtype.itemsize * 8
        flip_bit(arr, 7)
        flip_bit(arr, 7 + nbits)  # same element + bit after wrap
        np.testing.assert_array_equal(arr, ref)


# ---------------------------------------------------------------------------
# Payload checksum
# ---------------------------------------------------------------------------


class TestFramingCodec:
    """The payload checksum behind the state checksums and checkpoint
    digests."""

    def test_crc_is_layout_independent(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert payload_crc(a) == payload_crc(np.ascontiguousarray(a))
        assert payload_crc(a) == payload_crc(a.copy())


# ---------------------------------------------------------------------------
# Block / checkpoint digests
# ---------------------------------------------------------------------------


class TestDigests:
    def test_checkpoint_digests_verify_and_localize(self):
        model = make_model(4)
        ring = CheckpointRing(capacity=2, checksums=True)
        ckpt = ring.snapshot(model)
        assert ckpt.crcs is not None
        assert CheckpointRing().snapshot(model).crcs is None
        assert ckpt.bad_blocks() == []
        flip_bit(ckpt.states[1][2], 9)  # block 1, m0 buffer
        assert ckpt.bad_blocks() == [1]

    def test_state_checksums_follow_the_leapfrog_window(self):
        # The digest of the published (old) buffers at step k must equal
        # the digest of the *new* buffers after step k+1 — the same
        # memory on the other side of the flip.
        model = make_model(2)
        before = state_checksums(model.states)
        model.run(1)
        after = state_checksums(model.states, new=True)
        assert before == after


# ---------------------------------------------------------------------------
# Integrity monitor
# ---------------------------------------------------------------------------


class TestIntegrityMonitor:
    def test_clean_run_raises_nothing(self):
        model = make_model()
        tracker = IntegrityTracker()
        monitor = IntegrityMonitor(every=1, tracker=tracker)
        for _ in range(6):
            model.run(1)
            monitor.after_step(model)
        assert tracker.verdict == CLEAN
        assert tracker.checks > 0

    def test_published_state_mutation_is_detected(self):
        model = make_model()
        tracker = IntegrityTracker()
        monitor = IntegrityMonitor(every=1, tracker=tracker)
        model.run(1)
        monitor.after_step(model)
        flip_bit(model.states[0].z_old, 2)  # SDC in the read buffer
        model.run(1)
        with pytest.raises(IntegrityError) as exc:
            monitor.after_step(model)
        assert exc.value.surface == "state"
        assert 0 in exc.value.blocks
        assert tracker.detections["state"] == 1

    def test_abort_false_records_without_raising(self):
        """The detection is in the tracker by the time the monitor raises."""
        model = make_model()
        tracker = IntegrityTracker()
        monitor = IntegrityMonitor(every=1, tracker=tracker)
        model.run(1)
        monitor.after_step(model)
        flip_bit(model.states[1].m_old, 4)
        model.run(1)
        with pytest.raises(IntegrityError):
            monitor.after_step(model)
        assert tracker.detections["state"] == 1

    def test_reset_baseline_drops_pending_verification(self):
        model = make_model()
        monitor = IntegrityMonitor(every=1)
        model.run(1)
        monitor.after_step(model)
        flip_bit(model.states[0].z_old, 2)
        monitor.reset_baseline()
        model.run(1)
        monitor.after_step(model)  # stale digests were discarded


# ---------------------------------------------------------------------------
# Checkpoint scrubber
# ---------------------------------------------------------------------------


class TestScrubber:
    def test_corrupt_ring_entry_evicted_without_disk_copy(self):
        model = make_model(4)
        ring = CheckpointRing(capacity=3, checksums=True)
        ring.snapshot(model)
        model.run(2)
        bad_ckpt = ring.snapshot(model)
        flip_bit(bad_ckpt.states[0][0], 17)
        tracker = IntegrityTracker()
        stats = CheckpointScrubber(ring, tracker=tracker).scrub()
        assert stats == {
            "checked": 2, "evicted": 1, "repaired": 0,
            "disk_quarantined": 0,
        }
        assert len(ring.entries()) == 1
        assert tracker.verdict == CORRECTED  # contained, nothing silent

    def test_corrupt_ring_entry_repaired_from_disk_spill(self, tmp_path):
        from repro.persist import RunStore

        store = RunStore(tmp_path / "run")
        model = make_model(4)
        ring = CheckpointRing(
            capacity=2, store=store, checksums=True
        )
        ckpt = ring.snapshot(model)
        flip_bit(ckpt.states[1][4], 23)  # n0 buffer of block 1
        tracker = IntegrityTracker()
        stats = CheckpointScrubber(ring, store=store, tracker=tracker).scrub()
        assert stats["repaired"] == 1 and stats["evicted"] == 0
        assert ring.latest.bad_blocks() == []
        assert tracker.scrub_repairs == 1

    def test_corrupt_disk_snapshot_quarantined(self, tmp_path):
        from repro.persist import RunStore

        store = RunStore(tmp_path / "run")
        model = make_model(4)
        ring = CheckpointRing(
            capacity=2, store=store, checksums=True
        )
        ring.snapshot(model)
        snapdir = store.snapshot_paths()[0]
        blob = next(p for p in snapdir.iterdir() if p.suffix == ".npz")
        raw = bytearray(blob.read_bytes())
        raw[len(raw) // 2] ^= 0x10  # land inside array data, not the trailer
        blob.write_bytes(bytes(raw))
        stats = CheckpointScrubber(ring, store=store).scrub()
        assert stats["disk_quarantined"] == 1
        assert store.snapshot_paths() == []  # renamed out of restore path
        assert any(
            p.name.startswith("quarantined-")
            for p in snapdir.parent.iterdir()
        )


# ---------------------------------------------------------------------------
# Quarantine rollback through the recovery engine
# ---------------------------------------------------------------------------


HORIZON_S = 40.0


def _forecast(plan=None, **kw):
    kw.setdefault("checkpoint_every", 10)
    kw.setdefault("integrity_every", 1)
    kw.setdefault("scrub_every", 8)
    return run_resilient_forecast(
        nested_grid(),
        FlatBathymetry(50.0),
        config=config(),
        source=source(),
        horizon_s=HORIZON_S,
        fault_plan=plan,
        **kw,
    )


def _eta(report):
    return {
        bid: st.eta_interior().copy()
        for bid, st in report.model.states.items()
    }


class TestQuarantineRollback:
    def test_state_flip_is_rolled_back_bitwise(self):
        ref = _eta(_forecast())
        plan = FaultPlan([
            FaultSpec(
                kind="bitflip", target="state", step=13, block=0,
                field="z", bit=2,
            )
        ])
        report = _forecast(plan)
        assert report.status == "complete"
        assert report.integrity_verdict == CORRECTED
        assert report.integrity["detections"]["state"] == 1
        assert report.integrity["corrections"]["rollback"] == 1
        assert any(
            ev.kind == "quarantine_rollback" for ev in report.recoveries
        )
        # The transient flip is consumed; replay converges bitwise.
        out = _eta(report)
        for bid in ref:
            np.testing.assert_array_equal(out[bid], ref[bid])

    def test_quarantine_rollback_does_not_halve_dt(self):
        plan = FaultPlan([
            FaultSpec(
                kind="bitflip", target="state", step=13, block=1,
                field="m", bit=1,
            )
        ])
        report = _forecast(plan)
        # Transient SDC is not stiffness: dt must survive the rollback.
        assert report.dt_final == config().dt

    def test_checkpoint_flip_adjudicated_by_final_scrub(self):
        plan = FaultPlan([
            FaultSpec(
                kind="bitflip", target="checkpoint", step=31, block=0,
                field="z", bit=6,
            )
        ])
        report = _forecast(plan, scrub_every=0)  # only the final scrub
        assert report.integrity_verdict == CORRECTED
        assert report.integrity["detections"]["checkpoint"] == 1
        assert report.integrity["uncorrected"] == 0

    def test_a_scrub_that_empties_the_ring_refills_it(self):
        """The step-7 flip spoils the ring's only checkpoint (step 0) and
        the step-8 scrub evicts it; the step-12 state flip must still find
        a verified checkpoint to roll back to."""
        ref = _eta(_forecast())
        plan = FaultPlan([
            FaultSpec(kind="bitflip", target="checkpoint", step=7, block=1,
                      field="n", bit=6),
            FaultSpec(kind="bitflip", target="state", step=12, block=0,
                      field="m", bit=6),
        ])
        report = _forecast(plan, checkpoint_every=20)
        assert report.status == "complete"
        assert report.integrity_verdict == CORRECTED
        assert report.integrity["corrections"]["rollback"] == 1
        out = _eta(report)
        for bid in ref:
            np.testing.assert_array_equal(out[bid], ref[bid])

    def test_armed_layer_is_bitwise_invisible(self):
        armed = _forecast()
        plain = run_resilient_forecast(
            nested_grid(),
            FlatBathymetry(50.0),
            config=config(),
            source=source(),
            horizon_s=HORIZON_S,
            checkpoint_every=10,
        )
        assert armed.integrity_verdict == CLEAN
        a, b = _eta(armed), _eta(plain)
        for bid in b:
            np.testing.assert_array_equal(a[bid], b[bid])

    def test_two_allocation_free_digest_passes_per_armed_step(
        self, monkeypatch
    ):
        """What keeps the state check cheap, as counts: one record and one
        verify pass per armed step, each a CRC over the buffers in place.
        The ratio to the run's wall is the ledger's
        ``resilience.guard_tax_ratio``; a wall-clock guard here drifted
        with the box and with every kernel speed-up.
        """
        import tracemalloc

        from repro.resilience import integrity

        passes = []
        real = integrity.state_checksums
        monkeypatch.setattr(
            integrity, "state_checksums",
            lambda states, new=False: passes.append(new) or real(states, new),
        )
        model = make_model()
        model.run(50, monitor=[IntegrityMonitor(every=4)])
        # Steps 4, 8 .. 48 are recorded; each is verified one step later.
        assert passes.count(False) == passes.count(True) == 12

        tracemalloc.start()
        try:
            real(model.states)  # tracemalloc's own bookkeeping
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            real(model.states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        smallest = min(st.z_old.nbytes for st in model.states.values())
        assert peak - before < 4096 < smallest


# ---------------------------------------------------------------------------
# Neighbor-checkpoint verification (survivable runtime)
# ---------------------------------------------------------------------------


class TestNeighborChecksums:
    def _rings(self):
        import pickle

        from repro.resilience import Checkpoint, CheckpointRing

        def shipped(ckpt):  # what the buddy receives: a pickled copy
            return pickle.loads(pickle.dumps(ckpt))

        def rank_checkpoint(bid, base):
            bufs = tuple(np.full((4, 4), base + k) for k in range(6)) + (0,)
            return Checkpoint(8, 8.0, 1.0, 1, {bid: bufs}).digested()

        own, other = rank_checkpoint(0, 0.0), rank_checkpoint(1, 10.0)
        # Buddy layout: each ring holds its own entry, then the other's
        # replica as the transport delivers it between rank processes.
        r0, r1 = CheckpointRing(), CheckpointRing()
        r0.hold(own)
        r0.hold(shipped(other))
        r1.hold(other)
        r1.hold(shipped(own))
        return r0, r1

    def _grid(self):
        return NestedGrid([
            GridLevel(
                index=1, dx=100.0,
                blocks=[Block(0, 1, 0, 0, 4, 4), Block(1, 1, 4, 0, 4, 4)],
            )
        ])

    def test_corrupt_own_copy_repaired_from_neighbor(self):
        from repro.resilience.survive import _assemble_recovery

        r0, r1 = self._rings()
        own, replica = r0.entries()[0], r1.entries()[1]
        flip_bit(own.states[0][0], 12)  # corrupt rank 0's own copy
        ckpt = _assemble_recovery(self._grid(), [r0, r1])
        assert ckpt is not None and ckpt.step == 8
        # Block 0 must come from the clean replica held by rank 1.
        clean = replica.states[0][0]
        assert not np.array_equal(own.states[0][0], clean)
        np.testing.assert_array_equal(ckpt.states[0][0], clean)

    def test_epoch_unusable_when_every_copy_is_corrupt(self):
        from repro.resilience.survive import _assemble_recovery

        r0, r1 = self._rings()
        flip_bit(r0.entries()[0].states[0][0], 12)
        flip_bit(r1.entries()[1].states[0][0], 30)
        assert _assemble_recovery(self._grid(), [r0, r1]) is None


# ---------------------------------------------------------------------------
# integrity.json document + verdict folding
# ---------------------------------------------------------------------------


class TestVerdictAndDocument:
    def test_verdict_folds_worst_outcome(self):
        t = IntegrityTracker()
        assert t.verdict == CLEAN
        t.detection("state", step=3)
        t.corrected("rollback", "state", step=3)
        assert t.verdict == CORRECTED
        t.detection("halo")
        t.uncorrectable("halo")
        assert t.verdict == CORRUPTED

    def test_document_round_trips_and_gates(self, tmp_path):
        t = IntegrityTracker()
        t.note_checks(10)
        t.detection("checkpoint", step=5, blocks=[1])
        t.uncorrectable("checkpoint", step=5)
        path = tmp_path / "integrity.json"
        write_integrity_json(path, integrity_doc(t))
        doc = load_integrity_report(path)
        assert doc["verdict"] == CORRUPTED
        lines, ok = render_integrity_doc(doc)
        assert not ok
        assert any("UNCORRECTED" in ln for ln in lines)

    def test_soak_shaped_document(self, tmp_path):
        doc = integrity_doc(
            verdict=CORRECTED,
            counts={"clean": 8, "corrected": 2},
            requests=[{"request_id": "req-1", "verdict": "corrected"}],
        )
        path = tmp_path / "integrity.json"
        write_integrity_json(path, doc)
        lines, ok = render_integrity_doc(load_integrity_report(path))
        assert ok
        assert any("clean=8" in ln for ln in lines)

    def test_loading_garbage_raises(self, tmp_path):
        path = tmp_path / "integrity.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(PersistError):
            load_integrity_report(path)

    def test_bitflip_in_fault_vocabulary(self):
        assert "bitflip" in FaultPlan.random(
            3, kinds=("bitflip",), n_faults=5, n_blocks=2
        ).to_dict()["faults"][0]["kind"]
        assert BITFLIP_TARGETS == ("state", "checkpoint")


# ---------------------------------------------------------------------------
# Durability: atomic rename + parent-directory fsync
# ---------------------------------------------------------------------------


def _streamer(tmp_path):
    from repro.persist import ProductStreamer, RunStore

    model = make_model(2)
    return model, ProductStreamer(RunStore(tmp_path / "run"), model)


def _gauge_rewrite(tmp_path):
    model, streamer = _streamer(tmp_path)
    streamer.after_step(model)
    return (lambda: streamer.truncate_after(0.0)), streamer.gauge_path.parent


def _distributed_eta(tmp_path):
    from repro.resilience.survive import _publish_distributed_eta
    from repro.persist import RunStore

    store = RunStore(tmp_path / "run")
    eta = {0: np.zeros((2, 2))}
    return (lambda: _publish_distributed_eta(store, eta, 4)), store.products_dir


def _flight_dump(tmp_path):
    from repro.obs.flight import FlightBook

    book = FlightBook(out_dir=tmp_path / "flight")
    book.open("req-1")
    return (
        lambda: book.settle("req-1", outcome="failed", dump=True)
    ), tmp_path / "flight"


def _in_tmp(write):
    """A writer of one named file directly under the test directory."""
    return lambda tmp_path: ((lambda: write(tmp_path)), tmp_path)


def _write_physics(d):
    from repro.obs.physics import physics_doc, write_physics_json

    write_physics_json(d / "physics.json", physics_doc())


def _write_slo(d):
    from repro.obs.slo import SLOEngine

    SLOEngine().write_json(d / "slo.json", now=10.0)


def _write_metrics(d):
    from repro.obs.metrics import MetricsRegistry

    MetricsRegistry().write_json(d / "metrics.json")


def _write_trace(d):
    from repro.obs.export import write_chrome_trace

    write_chrome_trace(d / "trace.json")


#: name -> ``setup(tmp_path) -> (write, directory the file lands in)``
#: for every single-file artifact writer in the tree.
ARTIFACT_WRITERS = {
    "physics.json": _in_tmp(_write_physics),
    "integrity.json": _in_tmp(
        lambda d: write_integrity_json(
            d / "integrity.json", integrity_doc(verdict=CLEAN)
        )
    ),
    "slo.json": _in_tmp(_write_slo),
    "metrics.json": _in_tmp(_write_metrics),
    "trace.json": _in_tmp(_write_trace),
    "flight recording": _flight_dump,
    "gauge rewrite": _gauge_rewrite,
    "distributed eta": _distributed_eta,
}


class TestDirsyncRegression:
    def test_snapshot_publish_fsyncs_parent(self, tmp_path, monkeypatch):
        """Regression: rename without dirsync can vanish on power loss.

        Simulated by recording every ``fsync_dir`` target during a
        snapshot publish — the snapshot's parent directory (where the
        rename landed) must be among them, *after* the rename.
        """
        from repro.persist import RunStore
        from repro.persist import snapshot as snap

        calls: list = []
        real = snap.fsync_dir
        monkeypatch.setattr(
            snap, "fsync_dir", lambda p: (calls.append(p), real(p))[1]
        )
        store = RunStore(tmp_path / "run")
        model = make_model(2)
        path = store.save_snapshot(model)
        assert path.parent in [p for p in calls], (
            "snapshot publish renamed without fsyncing the parent dir"
        )

    @pytest.mark.parametrize("writer", sorted(ARTIFACT_WRITERS))
    def test_writer_fsyncs_parent(self, writer, tmp_path, monkeypatch):
        """Every single-file artifact is published durably: the rename
        is followed by an fsync of the directory it landed in."""
        from repro.persist import snapshot as snap

        write, parent = ARTIFACT_WRITERS[writer](tmp_path)
        calls: list = []
        real = snap.fsync_dir
        monkeypatch.setattr(
            snap, "fsync_dir", lambda p: (calls.append(p), real(p))[1]
        )
        write()
        assert parent in calls

    @pytest.mark.parametrize("writer", sorted(ARTIFACT_WRITERS))
    def test_writer_failure_is_persist_error_without_leftovers(
        self, writer, tmp_path, monkeypatch
    ):
        import os

        write, parent = ARTIFACT_WRITERS[writer](tmp_path)

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(PersistError):
            write()
        assert not list(parent.glob(".tmp-*"))


# ---------------------------------------------------------------------------
# Service plumbing
# ---------------------------------------------------------------------------


class TestServicePlumbing:
    def test_simulated_backend_verdicts_are_deterministic(self, monkeypatch):
        from repro.service import backend
        from repro.service.backend import SimulatedBackend
        from repro.service.request import ForecastRequest

        monkeypatch.setattr(backend, "CORRUPT_DETECT_FRACTION", 0.5)

        def mk_backend():
            return SimulatedBackend(corrupt_fraction=0.5)

        scenarios = [
            {"grid": f"s-{i}", "cells_by_level": [[100_000]],
             "n_steps": 100, "dt": 1.0}
            for i in range(24)
        ]
        runs = []
        for be in (mk_backend(), mk_backend()):
            runs.append([
                be.run(
                    ForecastRequest(scenario=s, deadline_s=1e9), None
                ).integrity_verdict
                for s in scenarios
            ])
        assert runs[0] == runs[1]
        assert set(runs[0]) == {"clean", "corrected", "corrupted"}

    def test_corrupted_payload_differs_but_is_declared(self, monkeypatch):
        from repro.service import backend
        from repro.service.backend import SimulatedBackend
        from repro.service.request import ForecastRequest

        monkeypatch.setattr(backend, "CORRUPT_DETECT_FRACTION", 0.0)
        be = SimulatedBackend(corrupt_fraction=1.0)
        scenario = {"grid": "s", "cells_by_level": [[100_000]],
                    "n_steps": 100, "dt": 1.0}
        res = be.run(ForecastRequest(scenario=scenario, deadline_s=1e9),
                     None)
        assert res.integrity_verdict == CORRUPTED
        assert res.payload != be.unloaded_payload(scenario, res.fidelity)

    def test_soak_writes_integrity_json_and_feeds_slo(self, tmp_path):
        import repro.obs as obs
        from repro.resilience.integrity import INTEGRITY_NAME
        from repro.service import SoakConfig, run_soak

        obs.reset()
        report = run_soak(
            SoakConfig(duration_s=400.0, seed=5, corrupt_fraction=0.3),
            rundir=tmp_path,
        )
        assert report.verdicts["integrity"]  # verdicts were attached
        assert not report.integrity_failures  # nothing *silent*
        doc = load_integrity_report(tmp_path / INTEGRITY_NAME)
        assert doc["counts"] == report.verdicts["integrity"]
        slo = json.loads((tmp_path / "slo.json").read_text())
        integ = next(
            s for s in slo["slos"] if s["name"] == "integrity"
        )
        assert integ["total"] == sum(report.verdicts["integrity"].values())
        assert integ["bad"] == report.verdicts["integrity"].get(
            "corrupted", 0
        )

    def test_inspect_integrity_renders_forecast_artifact(self, tmp_path):
        from repro.obs import inspect_integrity
        from repro.persist import RunStore

        store = RunStore(tmp_path / "run")
        _forecast(store=store)
        text, ok = inspect_integrity(tmp_path / "run")
        assert ok and "verdict: clean" in text

    def test_inspect_integrity_missing_artifact_raises(self, tmp_path):
        from repro.obs import inspect_integrity

        with pytest.raises(PersistError):
            inspect_integrity(tmp_path)
