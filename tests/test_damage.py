"""Tests for the damage-estimation package (repro.damage)."""

import numpy as np
import pytest

from repro.core import RTiModel, SimulationConfig
from repro.damage import (
    BuildingInventory,
    FragilityCurve,
    STANDARD_CURVES,
    assess_damage,
    synthetic_inventory,
)
from repro.damage.assess import DamageReport, assess_block_damage
from repro.errors import ConfigurationError
from repro.fault import GaussianSource
from repro.grid.block import Block
from repro.topo import build_mini_kochi


class TestFragilityCurve:
    def test_median_is_half(self):
        c = FragilityCurve("test", 2.0, 0.6)
        assert c.probability(2.0) == pytest.approx(0.5, abs=1e-6)

    def test_monotone_in_depth(self):
        c = STANDARD_CURVES["wood-collapse"]
        d = np.linspace(0.01, 20.0, 100)
        p = c.probability(d)
        assert np.all(np.diff(p) >= -1e-12)
        assert 0.0 <= p.min() and p.max() <= 1.0

    def test_dry_ground_zero(self):
        c = STANDARD_CURVES["wood-collapse"]
        assert c.probability(0.0) == 0.0
        assert c.probability(np.array([-1.0, 0.0, 1.0]))[0] == 0.0

    def test_wood_weaker_than_rc(self):
        d = np.array([1.0, 2.0, 4.0, 8.0])
        wood = STANDARD_CURVES["wood-collapse"].probability(d)
        rc = STANDARD_CURVES["rc-collapse"].probability(d)
        assert np.all(wood > rc)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            FragilityCurve("x", -1.0, 0.5)
        with pytest.raises(ConfigurationError):
            FragilityCurve("x", 1.0, 0.0)

    def test_erf_accuracy(self):
        from math import erf as math_erf

        from repro.damage.fragility import _erf

        xs = np.linspace(-4, 4, 200)
        ours = _erf(xs)
        exact = np.array([math_erf(v) for v in xs])
        assert np.abs(ours - exact).max() < 2e-7


class TestInventory:
    def block(self):
        return Block(0, 1, 0, 0, 10, 8)

    def test_synthetic_on_land_only(self):
        blk = self.block()
        depth = np.full((8, 10), 50.0)
        depth[:, :4] = -5.0  # land strip
        inv = synthetic_inventory(blk, depth, dx=100.0, seed=1)
        total = inv.counts["wood"] + inv.counts["rc"]
        assert np.all(total[:, 4:] == 0.0)  # no buildings at sea
        assert total.sum() > 0

    def test_deterministic(self):
        blk = self.block()
        depth = np.full((8, 10), -2.0)
        a = synthetic_inventory(blk, depth, 100.0, seed=3)
        b = synthetic_inventory(blk, depth, 100.0, seed=3)
        assert np.array_equal(a.counts["wood"], b.counts["wood"])

    def test_density_decays_with_elevation(self):
        blk = Block(0, 1, 0, 0, 2, 1)
        depth = np.array([[-1.0, -40.0]])  # low vs high ground
        totals = np.zeros(2)
        for seed in range(200):
            inv = synthetic_inventory(blk, depth, 200.0, seed=seed)
            totals += (inv.counts["wood"] + inv.counts["rc"])[0]
        assert totals[0] > totals[1]

    def test_validation(self):
        blk = self.block()
        with pytest.raises(ConfigurationError):
            BuildingInventory(blk, {"wood": np.zeros((2, 2))})
        with pytest.raises(ConfigurationError):
            BuildingInventory(blk, {"wood": -np.ones((8, 10))})

    def test_population(self):
        blk = self.block()
        inv = BuildingInventory(
            blk, {"wood": np.full((8, 10), 2.0)}, people_per_building=3.0
        )
        buildings = sum(arr.sum() for arr in inv.counts.values())
        assert buildings * inv.people_per_building == pytest.approx(480.0)


class TestAssessment:
    def test_no_inundation_no_damage(self):
        blk = Block(0, 1, 0, 0, 4, 4)
        inv = BuildingInventory(blk, {"wood": np.full((4, 4), 5.0)})
        rep = assess_block_damage(inv, np.zeros((4, 4)), dx=10.0)
        assert rep.buildings_damaged == 0.0
        assert rep.buildings_exposed == 0.0
        assert rep.damage_ratio == 0.0

    def test_deep_flood_destroys_wood(self):
        blk = Block(0, 1, 0, 0, 4, 4)
        inv = BuildingInventory(blk, {"wood": np.full((4, 4), 5.0)})
        rep = assess_block_damage(inv, np.full((4, 4), 10.0), dx=10.0)
        assert rep.buildings_exposed == pytest.approx(80.0)
        assert rep.buildings_damaged > 0.95 * 80.0

    def test_rc_survives_what_wood_does_not(self):
        blk = Block(0, 1, 0, 0, 4, 4)
        depth = np.full((4, 4), 2.5)
        wood = assess_block_damage(
            BuildingInventory(blk, {"wood": np.full((4, 4), 5.0)}),
            depth, dx=10.0,
        )
        rc = assess_block_damage(
            BuildingInventory(blk, {"rc": np.full((4, 4), 5.0)}),
            depth, dx=10.0,
        )
        assert wood.buildings_damaged > 3 * rc.buildings_damaged

    def test_merge(self):
        a = DamageReport(10, 4, 24, 100.0, {"wood": 4})
        b = DamageReport(5, 1, 12, 50.0, {"rc": 1})
        m = a.merge(b)
        assert m.buildings_exposed == 15
        assert m.by_class == {"wood": 4, "rc": 1}

    def test_unmapped_class_rejected(self):
        blk = Block(0, 1, 0, 0, 2, 2)
        inv = BuildingInventory(blk, {"straw": np.ones((2, 2))})
        with pytest.raises(ConfigurationError):
            assess_block_damage(inv, np.ones((2, 2)), dx=10.0)

    def test_end_to_end_on_mini_kochi(self):
        mk = build_mini_kochi()
        model = RTiModel(mk.grid, mk.bathymetry, SimulationConfig(dt=mk.dt))
        model.set_initial_condition(
            GaussianSource(x0=4_000.0, y0=16_000.0, amplitude=2.0,
                           sigma=2_500.0)
        )
        model.run(900)
        report = assess_damage(model)
        assert report.inundated_area_m2 > 0
        assert report.buildings_exposed > 0
        assert 0.0 < report.damage_ratio <= 1.0
        assert report.population_exposed == pytest.approx(
            report.buildings_exposed * 2.4
        )
