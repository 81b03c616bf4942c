"""Tests for mesh topology arithmetic."""

import pytest

from repro.noc.routing import Direction
from repro.noc.topology import MeshTopology


@pytest.fixture
def mesh():
    return MeshTopology(8, 8)


class TestCoordinates:
    def test_roundtrip(self, mesh):
        for router in range(mesh.num_routers):
            x, y = mesh.coordinates(router)
            assert y * mesh.width + x == router

    def test_out_of_range_rejected(self, mesh):
        with pytest.raises(ValueError):
            mesh.coordinates(64)


class TestNeighbors:
    def test_interior_node(self, mesh):
        r = 3 * 8 + 3  # (3, 3)
        assert mesh.neighbor(r, Direction.EAST) == r + 1
        assert mesh.neighbor(r, Direction.WEST) == r - 1
        assert mesh.neighbor(r, Direction.NORTH) == r + 8
        assert mesh.neighbor(r, Direction.SOUTH) == r - 8

    def test_edges_have_no_neighbor(self, mesh):
        assert mesh.neighbor(0, Direction.WEST) is None
        assert mesh.neighbor(0, Direction.SOUTH) is None
        assert mesh.neighbor(63, Direction.EAST) is None
        assert mesh.neighbor(63, Direction.NORTH) is None

    def test_local_rejected(self, mesh):
        with pytest.raises(ValueError):
            mesh.neighbor(0, Direction.LOCAL)


class TestChannels:
    def test_channel_count(self, mesh):
        # 2 * (W-1) * H horizontal + 2 * W * (H-1) vertical directed links.
        assert len(mesh.channels()) == 2 * 7 * 8 + 2 * 8 * 7

    def test_channels_are_consistent(self, mesh):
        for src, direction, dst in mesh.channels():
            assert mesh.neighbor(src, direction) == dst

    def test_small_mesh_rejected(self):
        with pytest.raises(ValueError):
            MeshTopology(1, 8)
