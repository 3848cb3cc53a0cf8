"""Tests for repro.nesting (JNZ restriction, JNQ interpolation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import REFINEMENT_RATIO
from repro.errors import NestingError
from repro.grid.block import Block
from repro.grid.staggered import NGHOST, eta_shape, flux_m_shape, flux_n_shape
from repro.nesting.interp import (
    _subtract_intervals,
    child_boundary_segments,
    interpolate_fluxes,
)
from repro.nesting.restrict import restrict_eta, restriction_region

G = NGHOST


class TestRestrictionRegion:
    def setup_method(self):
        self.parent = Block(0, 1, 0, 0, 12, 12)
        self.child = Block(1, 2, 9, 9, 18, 18)  # parent cells (3,3)-(9,9)

    def test_full_overlap(self):
        regions = restriction_region(self.parent, self.child, mode="full")
        assert regions == [(3, 3, 9, 9)]

    def test_boundary_strips_cover_frame(self):
        regions = restriction_region(
            self.parent, self.child, mode="boundary", width=2
        )
        cells = set()
        for i0, j0, i1, j1 in regions:
            for j in range(j0, j1):
                for i in range(i0, i1):
                    assert (i, j) not in cells, "regions overlap"
                    cells.add((i, j))
        # Frame of width 2 around a 6x6 footprint: 36 - 4 = 32 cells.
        assert len(cells) == 32
        # The interior (center 2x2) is excluded.
        assert (5, 5) not in cells
        assert (3, 3) in cells and (8, 8) in cells

    def test_wide_strip_degenerates_to_full(self):
        regions = restriction_region(
            self.parent, self.child, mode="boundary", width=3
        )
        cells = sum((i1 - i0) * (j1 - j0) for i0, j0, i1, j1 in regions)
        assert cells == 36

    def test_no_overlap_gives_empty(self):
        far = Block(2, 2, 90, 90, 9, 9)
        assert restriction_region(self.parent, far) == []

    def test_unknown_mode(self):
        with pytest.raises(NestingError):
            restriction_region(self.parent, self.child, mode="bogus")


@st.composite
def thin_parents(draw):
    """A child footprint, and a parent that overlaps it but is thinner:
    it may start above the footprint's bottom strip, end below its top one,
    or sit wholly inside the middle band (a multi-parent child's parent)."""
    fi0, fj0 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    fi1, fj1 = fi0 + draw(st.integers(1, 9)), fj0 + draw(st.integers(1, 9))
    r = REFINEMENT_RATIO
    child = Block(1, 2, r * fi0, r * fj0, r * (fi1 - fi0), r * (fj1 - fj0))
    pi0 = draw(st.integers(max(fi0 - 3, 0), fi1 - 1))
    pj0 = draw(st.integers(max(fj0 - 3, 0), fj1 - 1))
    pi1 = draw(st.integers(max(pi0, fi0) + 1, fi1 + 3))
    pj1 = draw(st.integers(max(pj0, fj0) + 1, fj1 + 3))
    parent = Block(0, 1, pi0, pj0, pi1 - pi0, pj1 - pj0)
    return parent, child, draw(st.integers(1, 3))


class TestThinParentRegions:
    """ROADMAP 6(d): the middle band was not clipped to the parent."""

    @given(case=thin_parents())
    @settings(max_examples=300, deadline=None)
    def test_regions_tile_the_footprints_frame_inside_the_parent(self, case):
        parent, child, w = case
        fi0, fj0, fi1, fj1 = child.parent_footprint(REFINEMENT_RATIO)
        frame = {  # by definition, cell by cell
            (i, j)
            for i in range(max(fi0, parent.gi0), min(fi1, parent.gi1))
            for j in range(max(fj0, parent.gj0), min(fj1, parent.gj1))
            if i < fi0 + w or i >= fi1 - w or j < fj0 + w or j >= fj1 - w
        }
        cells = [
            (i, j)
            for i0, j0, i1, j1 in restriction_region(parent, child, "boundary", w)
            for i in range(i0, i1) for j in range(j0, j1)
        ]
        assert len(cells) == len(set(cells)), "regions overlap"
        assert set(cells) == frame

    @given(case=thin_parents(), masked=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_restrict_eta_never_raises_nor_touches_a_parent_ghost(
        self, case, masked
    ):
        parent, child, w = case
        pz = np.full(eta_shape(parent.ny, parent.nx), np.nan)
        pz[G:-G, G:-G] = -9.0
        cz = np.full(eta_shape(child.ny, child.nx), 2.0)
        depth = np.ones_like(pz) if masked else None
        written = restrict_eta(
            pz, cz, parent, child, mode="boundary", width=w, parent_h=depth
        )
        ghosts = np.ones(pz.shape, bool)
        ghosts[G:-G, G:-G] = False
        assert np.isnan(pz[ghosts]).all()
        assert (pz[G:-G, G:-G] == 2.0).sum() == written

    def test_the_case_that_used_to_raise(self):
        # Footprint rows 0..9; the parent holds rows 4..6 only: the old
        # middle band ran from row 2 (below the parent) to row 7 (above it).
        parent, child = Block(0, 1, 0, 4, 9, 2), Block(1, 2, 0, 0, 27, 27)
        assert restriction_region(parent, child, "boundary", 2) == [
            (0, 4, 2, 6), (7, 4, 9, 6),
        ]


    def test_the_shipped_grids_keep_the_region_tables_they_had(self):
        """Digests of every boundary table (widths 1-3) as they were before
        the clip: no parent of these grids is thinner than the frame, so
        the ledger's result digests do not move either."""
        import hashlib

        from repro.topo import (
            AutoNestConfig,
            ShelfBathymetry,
            build_auto_nest,
            build_mini_kochi,
        )

        def digest(grid):
            rows = [
                (parent.block_id, child.block_id, w,
                 restriction_region(parent, child, "boundary", w))
                for lvl in grid.levels[1:] for child in lvl.blocks
                for parent in grid.parent_blocks_of(child) for w in (1, 2, 3)
            ]
            return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]

        auto = build_auto_nest(  # the 59-block case of tests/test_distributed.py
            ShelfBathymetry(
                ocean_depth=2500.0, shelf_width=6_000.0, coast_y=8_000.0,
                coast_amplitude=600.0, coast_wavelength=9_000.0, land_slope=0.02,
            ),
            27_000.0, 27_000.0,
            AutoNestConfig(n_levels=3, dx_coarsest=270.0, dt=0.5,
                           coastal_band_m=400.0),
        )
        assert len(list(auto.all_blocks())) == 59
        assert digest(build_mini_kochi().grid) == "7bc23edc91f61139"
        assert digest(auto) == "67a670cc50aa0713"


class TestRestrictEta:
    def test_mean_preserving(self):
        parent = Block(0, 1, 0, 0, 6, 6)
        child = Block(1, 2, 0, 0, 18, 18)
        pz = np.zeros(eta_shape(6, 6))
        cz = np.zeros(eta_shape(18, 18))
        rng = np.random.default_rng(0)
        cz[G : G + 18, G : G + 18] = rng.normal(0, 1, (18, 18))
        written = restrict_eta(pz, cz, parent, child, mode="full")
        assert written == 36
        sub = cz[G : G + 18, G : G + 18].reshape(6, 3, 6, 3).mean(axis=(1, 3))
        assert np.allclose(pz[G : G + 6, G : G + 6], sub)

    def test_constant_field_restricts_to_constant(self):
        parent = Block(0, 1, 0, 0, 6, 6)
        child = Block(1, 2, 0, 0, 18, 18)
        pz = np.zeros(eta_shape(6, 6))
        cz = np.full(eta_shape(18, 18), 2.5)
        restrict_eta(pz, cz, parent, child, mode="full")
        assert np.allclose(pz[G : G + 6, G : G + 6], 2.5)

    def test_boundary_mode_leaves_interior(self):
        parent = Block(0, 1, 0, 0, 6, 6)
        child = Block(1, 2, 0, 0, 18, 18)
        pz = np.full(eta_shape(6, 6), -9.0)
        cz = np.full(eta_shape(18, 18), 1.0)
        restrict_eta(pz, cz, parent, child, mode="boundary", width=1)
        inner = pz[G + 1 : G + 5, G + 1 : G + 5]
        assert np.all(inner == -9.0)  # untouched
        assert np.all(pz[G, G : G + 6] == 1.0)  # bottom strip written

    def test_offset_child(self):
        parent = Block(0, 1, 0, 0, 12, 12)
        child = Block(1, 2, 9, 9, 9, 9)  # parent cells (3,3)-(6,6)
        pz = np.zeros(eta_shape(12, 12))
        cz = np.full(eta_shape(9, 9), 4.0)
        written = restrict_eta(pz, cz, parent, child, mode="full")
        assert written == 9
        assert np.all(pz[G + 3 : G + 6, G + 3 : G + 6] == 4.0)
        assert pz[G, G] == 0.0


class TestSubtractIntervals:
    def test_no_coverage(self):
        assert _subtract_intervals((0, 10), []) == [(0, 10)]

    def test_middle_hole(self):
        assert _subtract_intervals((0, 10), [(3, 6)]) == [(0, 3), (6, 10)]

    def test_full_coverage(self):
        assert _subtract_intervals((0, 10), [(0, 10)]) == []

    def test_multiple_holes(self):
        out = _subtract_intervals((0, 12), [(2, 4), (8, 10)])
        assert out == [(0, 2), (4, 8), (10, 12)]


class TestChildBoundarySegments:
    def test_isolated_block_has_all_sides(self):
        blk = Block(0, 2, 0, 0, 9, 9)
        segs = child_boundary_segments([blk], blk)
        assert segs["W"] == [(0, 9)]
        assert segs["N"] == [(0, 9)]

    def test_neighbor_covers_shared_edge(self):
        a = Block(0, 2, 0, 0, 9, 9)
        b = Block(1, 2, 9, 0, 9, 9)
        segs = child_boundary_segments([a, b], a)
        assert segs["E"] == []
        assert segs["W"] == [(0, 9)]
        segs_b = child_boundary_segments([a, b], b)
        assert segs_b["W"] == []

    def test_partial_coverage(self):
        a = Block(0, 2, 0, 0, 9, 18)
        b = Block(1, 2, 9, 0, 9, 9)  # covers lower half of a's east edge
        segs = child_boundary_segments([a, b], a)
        assert segs["E"] == [(9, 18)]


class TestInterpolateFluxes:
    def test_west_edge_copy(self):
        parent = Block(0, 1, 0, 0, 6, 6)
        child = Block(1, 2, 3, 0, 9, 18)  # west edge at parent face 1
        pm = np.zeros(flux_m_shape(6, 6))
        pn = np.zeros(flux_n_shape(6, 6))
        cm = np.zeros(flux_m_shape(18, 9))
        cn = np.zeros(flux_n_shape(18, 9))
        # Parent M at face column 1 (array col G+1), rows 0..5.
        pm[G : G + 6, G + 1] = np.arange(6, dtype=float) + 1.0
        segs = {"W": [(0, 18)], "E": [], "S": [], "N": []}
        written = interpolate_fluxes(pm, pn, cm, cn, parent, child, segs)
        assert written == 18
        edge = cm[G : G + 18, G]
        assert np.array_equal(edge, np.repeat(np.arange(6) + 1.0, 3))

    def test_south_edge_copy(self):
        parent = Block(0, 1, 0, 0, 6, 6)
        child = Block(1, 2, 0, 3, 18, 9)  # south edge at parent face row 1
        pm = np.zeros(flux_m_shape(6, 6))
        pn = np.zeros(flux_n_shape(6, 6))
        cm = np.zeros(flux_m_shape(9, 18))
        cn = np.zeros(flux_n_shape(9, 18))
        pn[G + 1, G : G + 6] = 7.0
        segs = {"W": [], "E": [], "S": [(0, 18)], "N": []}
        written = interpolate_fluxes(pm, pn, cm, cn, parent, child, segs)
        assert written == 18
        assert np.all(cn[G, G : G + 18] == 7.0)

    def test_flux_conservation_through_interface(self):
        # Discharge (flux per unit width) copied to 3 child faces of 1/3
        # width carries exactly the parent's volume flux.
        parent = Block(0, 1, 0, 0, 6, 6)
        child = Block(1, 2, 3, 0, 9, 18)
        pm = np.zeros(flux_m_shape(6, 6))
        pm[G : G + 6, G + 1] = 2.0
        cm = np.zeros(flux_m_shape(18, 9))
        pn = np.zeros(flux_n_shape(6, 6))
        cn = np.zeros(flux_n_shape(18, 9))
        segs = {"W": [(0, 18)], "E": [], "S": [], "N": []}
        interpolate_fluxes(pm, pn, cm, cn, parent, child, segs)
        dx_parent, dx_child = 30.0, 10.0
        parent_flux = float(pm[G : G + 6, G + 1].sum()) * dx_parent
        child_flux = float(cm[G : G + 18, G].sum()) * dx_child
        assert child_flux == pytest.approx(parent_flux)

    def test_misaligned_segment_raises(self):
        parent = Block(0, 1, 0, 0, 6, 6)
        child = Block(1, 2, 3, 0, 9, 18)
        arrs = (
            np.zeros(flux_m_shape(6, 6)),
            np.zeros(flux_n_shape(6, 6)),
            np.zeros(flux_m_shape(18, 9)),
            np.zeros(flux_n_shape(18, 9)),
        )
        with pytest.raises(NestingError):
            interpolate_fluxes(
                *arrs, parent, child, {"W": [(0, 17)], "E": [], "S": [], "N": []}
            )
