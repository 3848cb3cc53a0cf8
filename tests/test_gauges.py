"""Tests for the virtual tide gauges (repro.core.gauges)."""

import numpy as np
import pytest

from repro.core import RTiModel, SimulationConfig
from repro.core.gauges import GaugeRecorder
from repro.errors import ConfigurationError
from repro.fault import GaussianSource
from repro.topo import build_mini_kochi
from repro.validation import FlatBathymetry, single_block_model


class TestResolution:
    def test_gauge_resolves_to_finest_level(self):
        mk = build_mini_kochi()
        model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
        # A point inside the level-5 band.
        rec = GaugeRecorder(model, [("coastal", 2_800.0, 9_100.0)])
        assert rec.gauges[0].level == 5
        # A point only covered by level 1.
        rec2 = GaugeRecorder(model, [("offshore", 20_000.0, 30_000.0)])
        assert rec2.gauges[0].level == 1

    def test_outside_domain_rejected(self):
        model = single_block_model(8, 8, 100.0, FlatBathymetry(10.0))
        with pytest.raises(ConfigurationError):
            GaugeRecorder(model, [("nowhere", 5_000.0, 5_000.0)])


class TestRecording:
    def test_series_lengths_and_times(self):
        model = single_block_model(16, 16, 100.0, FlatBathymetry(10.0))
        model.set_initial_condition(
            GaussianSource(x0=800.0, y0=800.0, amplitude=0.5, sigma=300.0)
        )
        rec = GaugeRecorder(model, [("center", 800.0, 800.0)], every=2)
        model.run(20, monitor=rec)
        t, eta = rec.gauges[0].series()
        assert len(t) == 10
        assert np.all(np.diff(t) > 0)

    def test_gauge_sees_the_wave(self):
        model = single_block_model(40, 40, 100.0, FlatBathymetry(50.0),
                                   boundary="wall")
        model.set_initial_condition(
            GaussianSource(x0=2_000.0, y0=2_000.0, amplitude=1.0, sigma=400.0)
        )
        rec = GaugeRecorder(
            model, [("near", 2_000.0, 2_000.0), ("far", 3_900.0, 3_900.0)]
        )
        model.run(120, monitor=rec)
        near, far = rec.gauges
        assert near.max_eta > 0.5  # sits on the source
        assert far.max_eta > 0.01  # the wave arrived
        # The far gauge peaks later than the near one.
        t_n = near.times[int(np.argmax(near.eta))]
        t_f = far.times[int(np.argmax(far.eta))]
        assert t_f > t_n

    def test_sampling_interval_validated(self):
        model = single_block_model(8, 8, 100.0, FlatBathymetry(10.0))
        with pytest.raises(ConfigurationError):
            GaugeRecorder(model, [("g", 400.0, 400.0)], every=0)

    def test_summary_format(self):
        model = single_block_model(8, 8, 100.0, FlatBathymetry(10.0))
        rec = GaugeRecorder(model, [("station-a", 400.0, 400.0)])
        rec.record()
        text = rec.summary()
        assert "station-a" in text
        assert "max eta" in text
