"""Tests for the unified Buffer State Table."""

from dataclasses import fields

import pytest

from repro.noc.bst import BstEntry, BufferStateTable
from repro.noc.routing import Direction


@pytest.fixture
def bst():
    return BufferStateTable(num_vcs=4)


class TestBst:
    def test_record_lookup_roundtrip(self, bst):
        bst.record(Direction.EAST, 2, Direction.NORTH, 1)
        entry = bst.lookup(Direction.EAST, 2)
        assert entry.output_port is Direction.NORTH
        assert entry.out_vc == 1

    def test_entry_holds_only_the_allocation(self):
        # The owning packet is the input VC's ``owner``, not a BST field.
        assert [f.name for f in fields(BstEntry)] == ["output_port", "out_vc"]

    def test_lookup_idle_pair_returns_none(self, bst):
        assert bst.lookup(Direction.WEST, 0) is None

    def test_clear_releases_pair(self, bst):
        bst.record(Direction.EAST, 2, Direction.NORTH, 1)
        bst.clear(Direction.EAST, 2)
        assert bst.lookup(Direction.EAST, 2) is None

    def test_clear_is_idempotent(self, bst):
        bst.clear(Direction.EAST, 0)  # no error

    def test_open_entries_counts_in_flight_packets(self, bst):
        bst.record(Direction.EAST, 0, Direction.NORTH, 0)
        bst.record(Direction.WEST, 1, Direction.LOCAL, 0)
        assert bst.open_entries() == 2

    def test_overwrite_same_pair(self, bst):
        bst.record(Direction.EAST, 0, Direction.NORTH, 0)
        bst.record(Direction.EAST, 0, Direction.SOUTH, 3)
        assert bst.lookup(Direction.EAST, 0).output_port is Direction.SOUTH

    def test_bad_vc_rejected(self, bst):
        with pytest.raises(ValueError):
            bst.record(Direction.EAST, 4, Direction.NORTH, 0)

    def test_needs_at_least_one_vc(self):
        with pytest.raises(ValueError):
            BufferStateTable(0)
