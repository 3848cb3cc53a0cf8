"""``integrity.json`` documents written before two dead keys went.

Every such document carries ``"retransmits": 0`` (a constant: nothing
retransmits) and a ``detections.halo`` of 0 (no check runs on a halo
payload).  The schema tag did not change, because every reader takes a key
with ``.get``: an old document must still load and render, and a run of
today writes the very same document less those two keys.
``tests/data/integrity_v1/integrity.json`` is one such document: 40 steps of
the chaos matrix's two-level nest, checked every step and scrubbed every 10,
with a state bit flip at step 13 (rolled back) and a checkpoint bit flip at
step 21 (repaired from the disk spill).
"""

import json
from pathlib import Path

from repro.persist import RunStore
from repro.resilience import FaultPlan, FaultSpec, run_resilient_forecast
from repro.resilience.integrity import (
    INTEGRITY_NAME,
    load_integrity_report,
    render_integrity_doc,
)
from repro.validation import FlatBathymetry
from tests.test_chaos_matrix import config, nested_grid, source

V1 = Path(__file__).parent / "data" / "integrity_v1" / INTEGRITY_NAME


def test_a_document_with_the_dead_keys_loads_and_renders():
    doc = load_integrity_report(V1)
    assert doc["retransmits"] == 0 and doc["detections"]["halo"] == 0
    lines, ok = render_integrity_doc(doc)
    assert ok and lines == [
        "integrity verdict: corrected",
        "checks run: 305",
        "detections: 2 (checkpoint=1 state=1)",
        "corrections: 2 (rollback=1 scrub_repair=1)",
        "scrubber: 4 pass(es), 0 evicted, 1 repaired",
        "events (4):",
        *lines[6:],
    ]
    assert len(lines) == 6 + 4


def test_a_run_writes_the_document_less_the_dead_keys(tmp_path):
    plan = FaultPlan([
        FaultSpec(kind="bitflip", target="state", step=13, block=0,
                  field="z", bit=2),
        FaultSpec(kind="bitflip", target="checkpoint", step=21, block=1,
                  field="m", bit=6),
    ])
    store = RunStore(tmp_path / "run")
    report = run_resilient_forecast(
        nested_grid(), FlatBathymetry(50.0), config=config(), source=source(),
        horizon_s=40.0, fault_plan=plan, store=store, integrity_every=1,
        scrub_every=10, checkpoint_every=5,
    )
    want = load_integrity_report(V1)
    del want["retransmits"]
    del want["detections"]["halo"]
    assert json.loads(json.dumps(report.integrity)) == want
    assert load_integrity_report(store.rundir / INTEGRITY_NAME) == want
