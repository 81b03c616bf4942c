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

from repro.noc.routing import EAST, LOCAL, NORTH, SOUTH, WEST, Direction
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


register_topology("torus", lambda noc: TorusTopology(noc.width, noc.height))
