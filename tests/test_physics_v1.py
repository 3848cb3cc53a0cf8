"""``physics.json`` documents written before the gauge-anomaly channel went.

Every sample of such a document carries ``gauge_anomaly`` (always 0.0) and
its thresholds an ``anomaly_limit`` that no rule read.  The schema tag did
not change, because every reader takes a key with ``.get``: an old document
must still load, render and plot, and a run of today writes the very same
document less those two keys.  ``tests/data/physics_v1/physics.json`` is one
such document: 30 steps of a 20 x 20 basin sampled every 4 steps, with a
50 m spike put in at step 10.
"""

import json
from pathlib import Path

import pytest

import repro.obs.physics as physics
from repro.obs.export import physics_counter_events
from repro.obs.physics import (
    PHYSICS_NAME,
    PhysicsDivergenceError,
    PhysicsSampler,
    load_physics_report,
    physics_doc,
    render_physics_doc,
)

from tests.test_physics import _Corruptor, basin_model

V1 = Path(__file__).parent / "data" / "physics_v1" / PHYSICS_NAME


def test_a_document_with_the_anomaly_keys_loads_and_renders():
    doc = load_physics_report(V1)
    assert "gauge_anomaly" in doc["samples"][0]
    assert "anomaly_limit" in doc["thresholds"]
    lines, ok = render_physics_doc(doc)
    assert not ok and lines[0] == "physics verdict: diverged"
    assert "sentinel events (3):" in lines
    assert len(lines) == 1 + 1 + 5 + 1 + 3 + 1  # header, samples, events, aborts
    assert len(physics_counter_events(doc["samples"])) == 1 + 5 * 4


def test_a_run_writes_the_document_less_the_anomaly_keys(monkeypatch):
    monkeypatch.setattr(physics, "SAMPLE_EVERY", 4)
    model = basin_model(n=20)
    sampler = PhysicsSampler()
    with pytest.raises(PhysicsDivergenceError):
        model.run(30, monitor=[_Corruptor(10, 50.0), sampler])
    want = load_physics_report(V1)
    del want["thresholds"]["anomaly_limit"]
    for smp in want["samples"]:
        del smp["gauge_anomaly"]
    assert json.loads(json.dumps(physics_doc(sampler))) == want
