"""2D torus: a mesh with wraparound links and dateline VC-class routing.

Routing is dimension-ordered (X fully, then Y) and minimal per dimension:
each hop takes the shorter way around the ring of its dimension (ties
break toward EAST/NORTH).  The wraparound turns each dimension into a
ring, so dimension order alone no longer prevents deadlock; the classic
dateline scheme restores it.  Each dimension designates its wrap link as
the *dateline*: packets travel in VC class 0 (the lower half of each
port's VCs) until they cross the dateline, then switch to class 1 (the
upper half).  The class resets when the packet turns into the next
dimension.  With dimension order ruling out Y->X turns, the extended
channel-dependency graph (channel x class) is acyclic, hence
deadlock-free; this is why ``NocConfig`` requires ``num_vcs >= 2`` here.
"""

from __future__ import annotations

from repro.noc.routing import (
    EAST,
    LOCAL,
    MESH_DIRECTIONS,
    NORTH,
    SOUTH,
    WEST,
    Direction,
)
from repro.noc.topology import Topology, register_topology


class TorusTopology(Topology):
    """W x H torus with per-dimension minimal, dateline-classed routing."""

    name = "torus"
    uses_vc_classes = True

    def __init__(self, width: int, height: int):
        if width < 2 or height < 2:
            raise ValueError("torus must be at least 2x2")
        self.width = width
        self.height = height
        self.routing = "xy"
        self._ejection = frozenset({LOCAL})

    @property
    def num_routers(self) -> int:
        return self.width * self.height

    @property
    def num_ports(self) -> int:
        return 5

    @property
    def ports(self) -> tuple[int, ...]:
        return tuple(Direction)

    def coordinates(self, router: int) -> tuple[int, int]:
        self._check(router)
        return router % self.width, router // self.width

    def neighbor(self, router: int, direction: Direction) -> int:
        """Neighbor id in *direction* — always defined on a torus."""
        x, y = self.coordinates(router)
        if direction is EAST:
            return y * self.width + (x + 1) % self.width
        if direction is WEST:
            return y * self.width + (x - 1) % self.width
        if direction is NORTH:
            return ((y + 1) % self.height) * self.width + x
        if direction is SOUTH:
            return ((y - 1) % self.height) * self.width + x
        raise ValueError("LOCAL has no neighbor")

    def channels(self) -> list[tuple[int, Direction, int]]:
        return [
            (router, direction, self.neighbor(router, direction))
            for router in range(self.num_routers)
            for direction in MESH_DIRECTIONS
        ]

    def router_of_node(self, node: int) -> int:
        self._check_node(node)
        return node

    def local_nodes(self, router: int) -> tuple[int, ...]:
        self._check(router)
        return (router,)

    def injection_port(self, node: int) -> int:
        self._check_node(node)
        return LOCAL

    def ejection_ports(self, router: int) -> frozenset[int]:
        return self._ejection

    def route_candidates(self, current: int, dst_node: int) -> list[int]:
        if current == dst_node:
            return [LOCAL]
        cx, cy = self.coordinates(current)
        dx, dy = self.coordinates(dst_node)
        if cx != dx:
            east = (dx - cx) % self.width
            west = (cx - dx) % self.width
            return [EAST if east <= west else WEST]
        north = (dy - cy) % self.height
        south = (cy - dy) % self.height
        return [NORTH if north <= south else SOUTH]

    def distance(self, src_node: int, dst_node: int) -> int:
        sx, sy = self.coordinates(src_node)
        dx, dy = self.coordinates(dst_node)
        ax = abs(sx - dx)
        ay = abs(sy - dy)
        return min(ax, self.width - ax) + min(ay, self.height - ay)

    def next_vc_class(self, router: int, out_port: int, current: int) -> int:
        dim = 0 if out_port == EAST or out_port == WEST else 1
        crossed = current % 2 if current // 2 == dim else 0
        x, y = self.coordinates(router)
        # The dateline is the wrap link of each dimension's ring.
        if out_port == EAST and x == self.width - 1:
            crossed = 1
        elif out_port == WEST and x == 0:
            crossed = 1
        elif out_port == NORTH and y == self.height - 1:
            crossed = 1
        elif out_port == SOUTH and y == 0:
            crossed = 1
        return dim * 2 + crossed

    def allowed_vcs(self, vc_class: int, num_vcs: int) -> range:
        half = num_vcs // 2
        if vc_class % 2 == 0:
            return range(0, half)
        return range(half, num_vcs)

    def thermal_neighbors(self, router: int) -> list[int]:
        x, y = self.coordinates(router)
        return [
            y * self.width + (x - 1) % self.width,
            y * self.width + (x + 1) % self.width,
            ((y - 1) % self.height) * self.width + x,
            ((y + 1) % self.height) * self.width + x,
        ]


register_topology("torus", lambda noc: TorusTopology(noc.width, noc.height))
