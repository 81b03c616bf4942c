"""Ring / loop fabric in the spirit of routerless NoCs.

All ``width * height`` nodes sit on one bidirectional ring: a clockwise
loop (EAST, node ``i -> i+1 mod N``) and a counter-clockwise loop (WEST).
Each node's switch has just three ports — LOCAL plus the two loop
directions — so the heavyweight five-port crossbar of the mesh shrinks to
the thin loop interface routerless designs argue for (Lin et al.,
PAPERS.md); the MFAC channel machinery and the gated-router bypass switch
carry over unchanged and are the natural operating mode on a loop.

Routing is minimal (shorter way around; ties clockwise), so each packet
rides one loop for its whole journey.  Each loop is a cycle, hence the
dateline discipline: packets start in VC class 0 and move to class 1 when
they cross the loop's wrap link (``N-1 -> 0`` clockwise, ``0 -> N-1``
counter-clockwise), which breaks the cyclic channel dependency on each
loop.  The two loops use disjoint channels and input ports, so the fabric
as a whole is deadlock-free with ``num_vcs >= 2``.
"""

from __future__ import annotations

from repro.noc.routing import EAST, LOCAL, WEST, Direction
from repro.noc.topology import DatelineTopology, register_topology

#: The two loop directions: EAST is the clockwise loop, WEST the
#: counter-clockwise one.
RING_DIRECTIONS = (EAST, WEST)


class RingTopology(DatelineTopology):
    """All nodes on one bidirectional loop; 3-port switches."""

    name = "ring"
    directions = RING_DIRECTIONS

    def __init__(self, width: int, height: int):
        if width * height < 3:
            raise ValueError("ring needs at least 3 nodes")
        super().__init__(width, height)

    def neighbor(self, router: int, direction: Direction) -> int:
        self._check(router)
        n = self.num_routers
        if direction is EAST:
            return (router + 1) % n
        if direction is WEST:
            return (router - 1) % n
        raise ValueError(f"ring has no {Direction(direction).name} port")

    def route_candidates(self, current: int, dst_node: int) -> list[int]:
        if current == dst_node:
            return [LOCAL]
        n = self.num_routers
        clockwise = (dst_node - current) % n
        counter = (current - dst_node) % n
        return [EAST if clockwise <= counter else WEST]

    def distance(self, src_node: int, dst_node: int) -> int:
        n = self.num_routers
        clockwise = (dst_node - src_node) % n
        return min(clockwise, n - clockwise)

    def next_vc_class(self, router: int, out_port: int, current: int) -> int:
        crossed = current % 2
        n = self.num_routers
        if out_port == EAST and router == n - 1:
            crossed = 1
        elif out_port == WEST and router == 0:
            crossed = 1
        return crossed


register_topology("ring", RingTopology.build)
