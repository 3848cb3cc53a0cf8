"""Tests for repro.grid.level and repro.grid.hierarchy."""

import pytest

from repro.errors import GridError, NestingError
from repro.grid.block import Block
from repro.grid.hierarchy import NestedGrid
from repro.grid.level import GridLevel


def lvl(index, dx, blocks):
    return GridLevel(index=index, dx=dx, blocks=blocks)


class TestGridLevel:
    def test_counts(self):
        level = lvl(1, 90.0, [Block(0, 1, 0, 0, 6, 6), Block(1, 1, 6, 0, 3, 6)])
        assert level.n_blocks == 2
        assert level.n_cells == 54

    def test_rejects_duplicate_ids(self):
        with pytest.raises(GridError):
            lvl(1, 90.0, [Block(0, 1, 0, 0, 3, 3), Block(0, 1, 3, 0, 3, 3)])

    def test_rejects_overlapping_blocks(self):
        with pytest.raises(GridError):
            lvl(1, 90.0, [Block(0, 1, 0, 0, 6, 6), Block(1, 1, 3, 3, 6, 6)])

    def test_rejects_wrong_level_tag(self):
        with pytest.raises(GridError):
            lvl(1, 90.0, [Block(0, 2, 0, 0, 3, 3)])

    def test_rejects_bad_dx(self):
        with pytest.raises(GridError):
            lvl(1, -1.0, [])

    def test_covering_block(self):
        a = Block(0, 1, 0, 0, 6, 6)
        level = lvl(1, 90.0, [a])
        assert level.covering_block(2, 2) is a
        assert level.covering_block(7, 2) is None

    def test_covers_range_full(self):
        level = lvl(1, 90.0, [Block(0, 1, 0, 0, 6, 6), Block(1, 1, 6, 0, 6, 6)])
        assert level.covers_range(0, 0, 12, 6)
        assert level.covers_range(3, 1, 9, 5)

    def test_covers_range_with_hole(self):
        level = lvl(1, 90.0, [Block(0, 1, 0, 0, 6, 6), Block(1, 1, 9, 0, 3, 6)])
        assert not level.covers_range(0, 0, 12, 6)
        assert level.covers_range(9, 0, 12, 6)

    def test_neighbor_pairs(self):
        a = Block(0, 1, 0, 0, 6, 6)
        b = Block(1, 1, 6, 0, 6, 6)
        c = Block(2, 1, 15, 0, 3, 3)
        pairs = lvl(1, 90.0, [a, b, c]).neighbor_pairs()
        assert len(pairs) == 1
        assert {pairs[0][0].block_id, pairs[0][1].block_id} == {0, 1}


def two_level_grid():
    parent = GridLevel(index=1, dx=90.0, blocks=[Block(0, 1, 0, 0, 12, 12)])
    child = GridLevel(index=2, dx=30.0, blocks=[Block(1, 2, 9, 9, 12, 12)])
    return NestedGrid([parent, child])


class TestNestedGrid:
    def test_valid_two_level(self):
        g = two_level_grid()
        assert g.n_levels == 2
        assert g.n_blocks == 2
        assert g.n_cells == 144 + 144

    def test_rejects_wrong_ratio(self):
        parent = GridLevel(index=1, dx=90.0, blocks=[Block(0, 1, 0, 0, 12, 12)])
        child = GridLevel(index=2, dx=45.0, blocks=[Block(1, 2, 0, 0, 6, 6)])
        with pytest.raises(NestingError):
            NestedGrid([parent, child])

    def test_rejects_child_outside_parent(self):
        parent = GridLevel(index=1, dx=90.0, blocks=[Block(0, 1, 0, 0, 6, 6)])
        # Child footprint (0,0)-(8,8) exceeds the 6x6 parent.
        child = GridLevel(index=2, dx=30.0, blocks=[Block(1, 2, 0, 0, 24, 24)])
        with pytest.raises(NestingError):
            NestedGrid([parent, child])

    def test_rejects_misaligned_child(self):
        parent = GridLevel(index=1, dx=90.0, blocks=[Block(0, 1, 0, 0, 12, 12)])
        child = GridLevel(index=2, dx=30.0, blocks=[Block(1, 2, 1, 0, 12, 12)])
        with pytest.raises(NestingError):
            NestedGrid([parent, child])

    def test_rejects_nonconsecutive_levels(self):
        l1 = GridLevel(index=1, dx=90.0, blocks=[Block(0, 1, 0, 0, 12, 12)])
        l3 = GridLevel(index=3, dx=30.0, blocks=[Block(1, 3, 0, 0, 6, 6)])
        with pytest.raises(GridError):
            NestedGrid([l1, l3])

    def test_rejects_reused_block_ids_across_levels(self):
        parent = GridLevel(index=1, dx=90.0, blocks=[Block(0, 1, 0, 0, 12, 12)])
        child = GridLevel(index=2, dx=30.0, blocks=[Block(0, 2, 9, 9, 12, 12)])
        with pytest.raises(GridError):
            NestedGrid([parent, child])

    def test_parent_and_child_links(self):
        g = two_level_grid()
        child = g.block(1)
        parents = g.parent_blocks_of(child)
        assert [p.block_id for p in parents] == [0]

    def test_level_one_has_no_parents(self):
        g = two_level_grid()
        assert g.parent_blocks_of(g.block(0)) == []

    def test_child_spanning_two_parents(self):
        parent = GridLevel(
            index=1,
            dx=90.0,
            blocks=[Block(0, 1, 0, 0, 6, 6), Block(1, 1, 6, 0, 6, 6)],
        )
        child = GridLevel(index=2, dx=30.0, blocks=[Block(2, 2, 9, 3, 18, 9)])
        g = NestedGrid([parent, child])
        assert {p.block_id for p in g.parent_blocks_of(g.block(2))} == {0, 1}

    def test_block_lookup_missing(self):
        with pytest.raises(GridError):
            two_level_grid().block(99)

    def test_level_lookup_bounds(self):
        g = two_level_grid()
        with pytest.raises(GridError):
            g.level(0)
        with pytest.raises(GridError):
            g.level(3)

    def test_summary_mentions_totals(self):
        text = two_level_grid().summary()
        assert "Total" in text
        assert "288" in text
