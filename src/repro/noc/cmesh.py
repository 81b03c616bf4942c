"""Concentrated mesh: several cores share each router.

The node grid stays ``width x height`` (traffic generators are untouched),
but nodes are grouped into tiles — ``2x1`` for concentration 2, ``2x2``
for concentration 4 — and each tile attaches to one router of a smaller
``(width/tx) x (height/ty)`` router mesh.  Within a tile, the node at
slot 0 uses the classic LOCAL port (id 0); slots ``s >= 1`` get dedicated
extra local ports with ids ``4 + s`` (5, 6, 7), so a router has ``4 + c``
ports in total.  The extra local ports are pure injection/ejection
endpoints: inter-router channels still use only the four ``Direction``
ports, and routing on the router grid is plain X-Y (or west-first) —
exactly the mesh's turn rules, so deadlock freedom carries over unchanged.
The router grid *is* a :class:`~repro.noc.topology.MeshTopology`, which
answers every question about neighbours and distances.
"""

from __future__ import annotations

from repro.noc.routing import LOCAL, Direction
from repro.noc.topology import MeshTopology, Topology, register_topology

#: concentration -> (tile width, tile height) in nodes.
TILE_SHAPES = {2: (2, 1), 4: (2, 2)}


class CMeshTopology(Topology):
    """Concentrated W x H node grid over a smaller router mesh."""

    name = "cmesh"

    def __init__(
        self, width: int, height: int, concentration: int, routing: str = "xy"
    ):
        if concentration not in TILE_SHAPES:
            raise ValueError("cmesh concentration must be 2 or 4")
        tile_w, tile_h = TILE_SHAPES[concentration]
        if width % tile_w or height % tile_h:
            raise ValueError(
                f"node grid {width}x{height} not divisible into "
                f"{tile_w}x{tile_h} tiles"
            )
        self.width = width
        self.height = height
        self.concentration = concentration
        self.tile_w = tile_w
        self.tile_h = tile_h
        self.router_width = width // tile_w
        self.router_height = height // tile_h
        if self.router_width < 2 or self.router_height < 2:
            raise ValueError("cmesh router grid must be at least 2x2")
        self._grid = MeshTopology(self.router_width, self.router_height, routing)
        # Slot 0 ejects via LOCAL; slot s >= 1 via port 4 + s.
        self._slot_ports = tuple(
            LOCAL if s == 0 else 4 + s for s in range(concentration)
        )
        self._ejection = frozenset(self._slot_ports)

    @property
    def num_routers(self) -> int:
        return self.router_width * self.router_height

    @property
    def ports(self) -> tuple[int, ...]:
        return tuple(Direction) + tuple(
            4 + s for s in range(1, self.concentration)
        )

    def router_coordinates(self, router: int) -> tuple[int, int]:
        return self._grid.coordinates(router)

    def neighbor(self, router: int, direction: Direction) -> int | None:
        """Neighbor on the router grid, or None at an edge."""
        return self._grid.neighbor(router, direction)

    def _node_xy(self, node: int) -> tuple[int, int]:
        self._check_node(node)
        return node % self.width, node // self.width

    def router_of_node(self, node: int) -> int:
        x, y = self._node_xy(node)
        return (y // self.tile_h) * self.router_width + x // self.tile_w

    def slot_of_node(self, node: int) -> int:
        """Position of *node* within its tile (row-major)."""
        x, y = self._node_xy(node)
        return (y % self.tile_h) * self.tile_w + x % self.tile_w

    def local_nodes(self, router: int) -> tuple[int, ...]:
        rx, ry = self.router_coordinates(router)
        return tuple(
            (ry * self.tile_h + sy) * self.width + rx * self.tile_w + sx
            for sy in range(self.tile_h)
            for sx in range(self.tile_w)
        )

    def injection_port(self, node: int) -> int:
        return self._slot_ports[self.slot_of_node(node)]

    def ejection_ports(self, router: int) -> frozenset[int]:
        return self._ejection

    def route_candidates(self, current: int, dst_node: int) -> list[int]:
        dst_router = self.router_of_node(dst_node)
        if current == dst_router:
            return [self.injection_port(dst_node)]
        return self._grid.route_candidates(current, dst_router)

    def distance(self, src_node: int, dst_node: int) -> int:
        return self._grid.distance(
            self.router_of_node(src_node), self.router_of_node(dst_node)
        )


register_topology(
    "cmesh",
    lambda noc: CMeshTopology(
        noc.width, noc.height, noc.concentration, routing=noc.routing
    ),
    default_concentration=4,
)
