"""Directions and X-Y dimension-ordered routing (Table 1).

Port/direction indices are shared by routers, channels, statistics, and the
RL feature extractor: LOCAL=0, EAST(+X)=1, WEST(-X)=2, NORTH(+Y)=3,
SOUTH(-Y)=4.
"""

from __future__ import annotations

import enum


class Direction(enum.IntEnum):
    LOCAL = 0
    EAST = 1  # +X
    WEST = 2  # -X
    NORTH = 3  # +Y
    SOUTH = 4  # -Y

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]


_OPPOSITE = {
    Direction.LOCAL: Direction.LOCAL,
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
}

# The members, bound once: route functions run per head flit, and a
# module-level name is a fraction of the cost of ``Direction.EAST`` (see
# the note in `repro.noc.power_gating`).
LOCAL = Direction.LOCAL
EAST = Direction.EAST
WEST = Direction.WEST
NORTH = Direction.NORTH
SOUTH = Direction.SOUTH

NUM_PORTS = 5
MESH_DIRECTIONS = (EAST, WEST, NORTH, SOUTH)


def xy_route(current: int, dst: int, width: int) -> Direction:
    """Dimension-ordered X-then-Y next-hop direction.

    Deadlock-free on a mesh; the paper's Table 1 configuration.

    >>> xy_route(0, 3, 8)
    <Direction.EAST: 1>
    >>> xy_route(0, 16, 8)
    <Direction.NORTH: 3>
    """
    if current == dst:
        return LOCAL
    cx, cy = current % width, current // width
    dx, dy = dst % width, dst // width
    if cx < dx:
        return EAST
    if cx > dx:
        return WEST
    if cy < dy:
        return NORTH
    return SOUTH


def hop_count(src: int, dst: int, width: int) -> int:
    """Manhattan distance between two mesh nodes."""
    sx, sy = src % width, src // width
    dx, dy = dst % width, dst // width
    return abs(sx - dx) + abs(sy - dy)
