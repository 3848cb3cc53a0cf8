"""Silent-data-corruption defense: ABFT checksums, scrub, quarantine.

Every fault the resilience layer injected before this module was *loud*
— a crash, a timeout, a NaN the health monitor trips on.  This module
defends against the quiet failure mode: a flipped bit that leaves every
value finite and plausible while making the forecast silently wrong.
The paper's simulator runs operationally across hardware with varying
ECC coverage; a wrong forecast delivered on time is the worst outcome it
can produce, so corruption must be *detected*, *contained*, and either
*corrected* or *reported* — never ignored.

Three cooperating pieces, one per detection/containment point:

:class:`IntegrityMonitor`
    Rides the model's monitor hook.  On a cadence it records per-block
    CRC-32 checksums of the published (read-buffer) state fields; on the
    following step — while the leap-frog double buffering still holds
    that memory read-only — it re-verifies them.  Any mutation of
    published state between the two hooks (the SDC window) raises
    :class:`~repro.errors.IntegrityError` naming the corrupt blocks, and
    the recovery engine quarantines + rolls back instead of running on.
:class:`CheckpointScrubber`
    Re-verifies the digests of in-memory ring checkpoints and
    disk-spilled snapshots on a cadence.  Corrupt ring entries are
    repaired block-by-block from a verified disk copy of the same step
    when one exists, else evicted; corrupt disk snapshots are
    quarantined (renamed out of the restore path).
:class:`IntegrityTracker`
    The shared ledger: every check, detection, correction and scrub
    action lands here, each non-clean one a run record with a
    ``repro_integrity_*`` counter (the detection-latency histogram carries
    trace-id exemplars), and folds
    into the end-of-run verdict — ``clean`` / ``corrected`` /
    ``corrupted`` — that flows through
    :class:`~repro.resilience.report.ForecastReport`, the service
    backends, the integrity SLO, ``integrity.json`` and ``repro inspect
    RUNDIR --integrity`` (exit 8 on detected-but-uncorrected).

Design constraints mirror the physics sentinel's: the monitor is
**non-mutating** (a run with the layer armed but nothing injected is
bitwise identical to one without it) and **cheap** (cadence-gated, CRC
only on the hot path; tier-1 guards both properties).
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace

from repro import guards
from repro.errors import ConfigurationError, IntegrityError
from repro.obs.log import RunEvents, ServiceEvent, traced_gauge
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.xchg.packing import payload_crc

_TRACER = get_tracer()

#: This guard's registry entry (:mod:`repro.guards`) declares the
#: verdict levels, the artifact's file name and its schema tag, once.
_KIND = guards.INTEGRITY
INTEGRITY_SCHEMA = _KIND.schema
INTEGRITY_NAME = _KIND.artifact
#: Verdicts, in increasing severity.  ``corrected`` means corruption was
#: detected *and* neutralized (scrub repair, or rollback to
#: a verified checkpoint); ``corrupted`` means detected but not
#: correctable — the run's products must not be trusted silently.
CLEAN, CORRECTED, CORRUPTED = INTEGRITY_VERDICTS = _KIND.levels

#: Detection surfaces of the ``integrity.json`` schema, each listed in
#: ``detections`` even at 0.  No check runs on halo payloads (a
#: rank-thread message is a copy in one address space).
SURFACES = ("state", "checkpoint")

#: Buckets for the detection-latency histogram [steps between the
#: checksummed instant and the check that caught the mismatch].
LATENCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Prognostic fields covered by block checksums, and their read/write
#: buffer accessors on :class:`~repro.core.state.BlockState`.
_FIELDS = ("z", "m", "n")


# ---------------------------------------------------------------------------
# Block checksums (the ABFT primitive)
# ---------------------------------------------------------------------------


def state_checksums(states: dict, new: bool = False) -> dict:
    """Per-block CRC-32 of each prognostic field's published buffer.

    *new* selects the write-side buffers instead — the same memory one
    leap-frog step later, which is how :class:`IntegrityMonitor`
    re-verifies a checksum it took on the previous step.  Pure read.
    """
    out: dict = {}
    for bid, st in states.items():
        if new:
            arrs = (st.z_new, st.m_new, st.n_new)
        else:
            arrs = (st.z_old, st.m_old, st.n_old)
        out[bid] = {f: payload_crc(a) for f, a in zip(_FIELDS, arrs)}
    return out


# ---------------------------------------------------------------------------
# The shared ledger
# ---------------------------------------------------------------------------


class IntegrityTracker:
    """Thread-safe ledger of integrity checks, detections and outcomes.

    One tracker is shared by every integrity collaborator of a run (the
    monitor, the scrubber, the recovery engine),
    so the end-of-run verdict is a single fold over everything that
    happened.  Every non-clean event is one record emitted into the run's
    *sink* (:class:`~repro.obs.log.RunEvents`; a private one by default),
    and the tallies of detections, corrections and uncorrected events are
    counts over those records.
    """

    def __init__(self, sink: RunEvents | None = None) -> None:
        self._lock = threading.Lock()
        self.sink = sink if sink is not None else RunEvents()
        self.checks = 0
        self.scrub_passes = 0
        self.scrub_evictions = 0

    # -- tallies: counts over the records ----------------------------------

    @property
    def detections(self) -> dict[str, int]:
        """Per surface, every one of :data:`SURFACES` listed."""
        return {**dict.fromkeys(SURFACES, 0), **self.sink.labels("detection")}

    @property
    def corrections(self) -> dict[str, int]:
        """Per action, in the order the actions first ran."""
        return self.sink.labels("corrected")

    @property
    def uncorrected(self) -> int:
        return self.sink.count("uncorrected")

    @property
    def scrub_repairs(self) -> int:
        return self.corrections.get("scrub_repair", 0)

    # -- recording -------------------------------------------------------

    def note_checks(self, n: int = 1) -> None:
        with self._lock:
            self.checks += n

    @property
    def events(self) -> list[dict]:
        """This ledger's records in the ``integrity.json`` shape."""
        return [
            {"kind": ev.kind, **ev.fields, "detail": ev.detail}
            for ev in self.sink.of("integrity")
        ]

    def detection(
        self,
        surface: str,
        step: int | None = None,
        detail: str = "",
        blocks=(),
        latency_steps: float | None = None,
    ) -> None:
        """One detected corruption (not yet judged corrected or not)."""
        self.sink.emit(ServiceEvent(None, "detection", detail=detail, fields={
            "surface": surface, "step": step, "blocks": sorted(blocks),
        }))
        if _TRACER.enabled:
            ctx = _TRACER.current_context()
            get_registry().histogram(
                "repro_integrity_detection_latency_steps",
                "steps between checksum capture and the failing check",
                buckets=LATENCY_BUCKETS,
            ).observe(
                1.0 if latency_steps is None else float(latency_steps),
                trace_id=ctx.trace_id if ctx is not None else None,
            )

    def corrected(
        self,
        action: str,
        surface: str,
        step: int | None = None,
        detail: str = "",
    ) -> None:
        """A detected corruption was neutralized by *action*."""
        self.sink.emit(ServiceEvent(None, "corrected", detail=detail, fields={
            "action": action, "surface": surface, "step": step,
        }))

    def uncorrectable(
        self, surface: str, step: int | None = None, detail: str = ""
    ) -> None:
        """A detected corruption could not be corrected (exit-8 class)."""
        self.sink.emit(ServiceEvent(None, "uncorrected", detail=detail,
                                    fields={"surface": surface, "step": step}))

    def scrubbed(self, evicted: int = 0) -> None:
        """One scrub pass, which evicted or quarantined *evicted* copies
        (its repairs are ``scrub_repair`` corrections)."""
        with self._lock:
            self.scrub_passes += 1
            self.scrub_evictions += evicted

    # -- folding ---------------------------------------------------------

    @property
    def verdict(self) -> str:
        if self.uncorrected:
            return CORRUPTED
        if self.sink.count("detection"):
            return CORRECTED
        return CLEAN

    def export_verdict(self) -> None:
        """Publish the current verdict gauge (called at run end)."""
        traced_gauge("repro_integrity_verdict",
                     "end-of-run integrity verdict "
                     "(0 clean, 1 corrected, 2 corrupted)",
                     INTEGRITY_VERDICTS.index(self.verdict))

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "verdict": self.verdict,
                "checks": self.checks,
                "detections": self.detections,
                "corrections": self.corrections,
                "uncorrected": self.uncorrected,
                "scrub_passes": self.scrub_passes,
                "scrub_evictions": self.scrub_evictions,
                "scrub_repairs": self.scrub_repairs,
                "events": self.events,
            }


# ---------------------------------------------------------------------------
# The state monitor
# ---------------------------------------------------------------------------


class IntegrityMonitor:
    """Cadence-gated checksum/verify cycle over published model state.

    The leap-frog double buffering gives one free invariant: the buffer
    published at the end of step *k* (``z_old`` then) is only *read*
    during step *k+1* and is reachable as ``z_new`` after it — the same
    memory, untouched by any correct execution.  The monitor records
    per-block CRCs of the published buffers on its cadence and
    re-verifies them through that window one step later, so any
    between-step mutation of published state — a flipped mantissa bit
    the physics sentinel can never see — is caught before the corrupted
    data is overwritten, while a rollback target still predates it.

    Composes with the health monitor and physics sentinel via
    :class:`repro.core.CompositeMonitor`.  Non-mutating by construction.
    """

    def __init__(
        self,
        every: int = 1,
        tracker: IntegrityTracker | None = None,
    ) -> None:
        if every < 1:
            raise ConfigurationError(
                "integrity cadence must be >= 1 step"
            )
        self.every = every
        self.tracker = tracker if tracker is not None else IntegrityTracker()
        self._pending: tuple[int, dict] | None = None

    def after_step(self, model) -> None:
        step = model.step_count
        if self._pending is not None:
            pstep, sums = self._pending
            self._pending = None
            self._verify(model, pstep, sums, step)
        if step % self.every == 0:
            self._pending = (step, state_checksums(model.states))

    def _verify(
        self, model, pstep: int, sums: dict, step: int
    ) -> None:
        current = state_checksums(
            {bid: st for bid, st in model.states.items() if bid in sums},
            new=True,
        )
        self.tracker.note_checks(
            sum(len(v) for v in sums.values())
        )
        bad: list[tuple[int, str]] = []
        for bid, by_field in sums.items():
            got = current.get(bid)
            if got is None:
                continue  # grid changed under us; stale checksum
            bad.extend(
                (bid, f) for f, crc in by_field.items() if got[f] != crc
            )
        if not bad:
            return
        blocks = sorted({bid for bid, _f in bad})
        detail = ", ".join(f"block {bid} field {f}" for bid, f in bad)
        self.tracker.detection(
            "state",
            step=step,
            detail=f"published state of step {pstep} mutated: {detail}",
            blocks=blocks,
            latency_steps=step - pstep,
        )
        raise IntegrityError(
            f"step {step}: checksum mismatch on published state of "
            f"step {pstep} ({detail}) — silent corruption in the "
            f"leap-frog window",
            surface="state",
            blocks=blocks,
            step=step,
        )

    def reset_baseline(self) -> None:
        """Forget pending checksums after a rollback or grid change."""
        self._pending = None


# ---------------------------------------------------------------------------
# Checkpoint scrubber
# ---------------------------------------------------------------------------


class CheckpointScrubber:
    """Cadence re-verification of ring and disk checkpoints.

    ``scrub()`` walks the in-memory ring (entries that carry digests),
    repairs a corrupt entry's bad blocks from the newest verified disk
    spill of the same step when one exists, evicts it otherwise, then verifies
    the digests of on-disk snapshots and quarantines any that fail
    (renamed ``quarantined-*`` so the restore path never sees them).
    Every action lands in the shared :class:`IntegrityTracker`.
    """

    def __init__(
        self, ring, store=None, tracker: IntegrityTracker | None = None
    ) -> None:
        self.ring = ring
        self.store = store
        self.tracker = tracker if tracker is not None else IntegrityTracker()

    def scrub(self) -> dict:
        checked = evicted = repaired = 0
        for ckpt in self.ring.entries():
            if ckpt.crcs is None:
                continue
            checked += 1
            self.tracker.note_checks(len(ckpt.crcs))
            blocks = ckpt.bad_blocks()
            if not blocks:
                continue
            self.tracker.detection(
                "checkpoint",
                step=ckpt.step,
                detail=(
                    f"ring entry @ step {ckpt.step} failed digest "
                    f"re-verification on block(s) {blocks}"
                ),
                blocks=blocks,
            )
            fixed = self._repair(ckpt, blocks)
            if fixed is not None:
                self.ring.replace(ckpt, fixed)
                repaired += 1
                self.tracker.corrected(
                    "scrub_repair",
                    "checkpoint",
                    step=ckpt.step,
                    detail=(
                        f"rebuilt block(s) {blocks} from the verified "
                        f"disk spill of step {ckpt.step}"
                    ),
                )
            else:
                self.ring.discard(ckpt)
                evicted += 1
        disk_quarantined = self._scrub_disk()
        self.tracker.scrubbed(evicted=evicted + disk_quarantined)
        return {
            "checked": checked,
            "evicted": evicted,
            "repaired": repaired,
            "disk_quarantined": disk_quarantined,
        }

    def _repair(self, ckpt, bad: list[int]):
        """Take the *bad* blocks from the newest same-step disk checkpoint
        that verifies; ``None`` when there is none or it fails the CRCs too."""
        disk = (
            self.store.latest_valid_snapshot(step=ckpt.step)
            if self.store is not None else None
        )
        if disk is None or not set(bad) <= set(disk.states):
            return None
        fixed = replace(
            ckpt, states={**ckpt.states, **{bid: disk.states[bid] for bid in bad}}
        )
        return None if fixed.bad_blocks() else fixed

    def _scrub_disk(self) -> int:
        if self.store is None:
            return 0
        from repro.persist.snapshot import verify_snapshot

        quarantined = 0
        for path in self.store.snapshot_paths():
            self.tracker.note_checks()
            problems = verify_snapshot(path)
            if not problems:
                continue
            self.tracker.detection(
                "checkpoint",
                detail=(
                    f"disk snapshot {path.name} failed verification: "
                    + "; ".join(problems[:3])
                ),
            )
            target = path.with_name(f"quarantined-{path.name}")
            try:
                os.replace(path, target)
            except OSError:
                continue
            quarantined += 1
        return quarantined


# ---------------------------------------------------------------------------
# integrity.json document
# ---------------------------------------------------------------------------


def integrity_doc(
    tracker: IntegrityTracker | None = None,
    verdict: str | None = None,
    counts: dict | None = None,
    requests: list[dict] | None = None,
) -> dict:
    """Assemble an ``integrity.json`` document.

    A single run contributes the *tracker* ledger (checks, detections,
    corrections, events); a service soak contributes *counts* and
    *requests* instead — see :meth:`repro.guards.GuardKind.doc`.
    """
    body = tracker.to_dict() if tracker is not None else None
    return _KIND.doc(verdict, body, counts, requests)


#: The per-artifact names: the registry entry's publisher and loader.
write_integrity_json = _KIND.publish
load_integrity_report = _KIND.load


def integrity_brief(doc: dict) -> str:
    """The integrity clause of a forecast summary line."""
    det = sum((doc.get("detections") or {}).values())
    cor = sum((doc.get("corrections") or {}).values())
    return f", {det} detection(s), {cor} corrected" if det else ""


def render_integrity_doc(doc: dict) -> tuple[list[str], bool]:
    """Human-readable integrity report; ``ok`` is False on ``corrupted``.

    Mirrors :func:`repro.obs.physics.render_physics_doc`'s contract so
    ``repro inspect --integrity`` can gate on the returned flag (exit 8
    = detected-but-uncorrected corruption).
    """
    verdict = doc.get("verdict", CLEAN)
    ok = verdict != CORRUPTED
    lines = [f"integrity verdict: {verdict}"]
    if doc.get("checks"):
        lines.append(f"checks run: {doc['checks']}")
    detections = doc.get("detections") or {}
    total_det = sum(detections.values())
    if total_det:
        per = " ".join(
            f"{k}={v}" for k, v in sorted(detections.items()) if v
        )
        lines.append(f"detections: {total_det} ({per})")
    corrections = doc.get("corrections") or {}
    if corrections:
        per = " ".join(f"{k}={v}" for k, v in sorted(corrections.items()))
        lines.append(f"corrections: {sum(corrections.values())} ({per})")
    if doc.get("uncorrected"):
        lines.append(
            f"UNCORRECTED: {doc['uncorrected']} detection(s) could not "
            "be repaired — do not trust this run's products"
        )
    if doc.get("scrub_passes"):
        lines.append(
            f"scrubber: {doc['scrub_passes']} pass(es), "
            f"{doc.get('scrub_evictions', 0)} evicted, "
            f"{doc.get('scrub_repairs', 0)} repaired"
        )
    events = doc.get("events") or []
    if events:
        lines.append(f"events ({len(events)}):")
        for ev in events[:40]:
            where = f" step {ev['step']}" if ev.get("step") is not None else ""
            lines.append(
                f"  {ev.get('kind', '?'):>10}{where}: "
                f"{ev.get('detail', ev.get('action', ''))}"
            )
        if len(events) > 40:
            lines.append(f"  ... {len(events) - 40} more")
    lines += _KIND.render_soak(doc)
    return lines, ok
