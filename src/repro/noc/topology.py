"""Interconnect topologies: the abstract graph contract plus the 2D mesh.

A :class:`Topology` describes everything the simulator needs to know about
the interconnect *graph* — router count, per-router port sets, directed
channel enumeration, a deadlock-free routing function, and a distance
metric — so the cycle-level machinery (routers, channels, fault models,
RL control) stays fabric-agnostic.  The paper's Table 1 configuration is
:class:`MeshTopology`; :mod:`repro.noc.torus`, :mod:`repro.noc.cmesh` and
:mod:`repro.noc.ring` register further fabrics.

Two id spaces matter:

* **nodes** — traffic endpoints (cores), always the full ``width x height``
  grid; trace events and packets address nodes.
* **routers** — switch instances; equal to nodes except under
  concentration (cmesh), where several nodes share one router.

Port ids are plain ints.  Ports ``0..4`` reuse the
:class:`~repro.noc.routing.Direction` encoding (LOCAL, EAST, WEST, NORTH,
SOUTH); fabrics with extra ejection ports (cmesh) use ids ``5+``.  Every
*inter-router* channel is keyed by a ``Direction`` member and satisfies
``dst input port == direction.opposite`` — extra local ports never carry
channels, so channel bookkeeping is identical across fabrics.
"""

from __future__ import annotations

import abc
from collections.abc import Container
from typing import TYPE_CHECKING, Callable, ClassVar

from repro.noc.adaptive_routing import CANDIDATE_FUNCTIONS
from repro.noc.routing import (
    EAST,
    LOCAL,
    MESH_DIRECTIONS,
    NORTH,
    SOUTH,
    WEST,
    Direction,
    hop_count,
)

if TYPE_CHECKING:
    from repro.config import NocConfig


#: The order the lumped thermal model sums a router's neighbours in (the
#: coupling term is a float sum over that list, so the order is part of
#: every digest).
THERMAL_ORDER = (WEST, EAST, SOUTH, NORTH)
_LOCAL_ONLY = frozenset({LOCAL})


class Topology(abc.ABC):
    """Abstract interconnect graph.

    Subclasses fix the router/channel structure at construction; all
    methods are pure functions of that structure (no simulation state).
    A fabric must define :meth:`neighbor`, :meth:`route_candidates` and
    :meth:`distance`; everything else has a default — one router per
    node with a single LOCAL port, channels and thermal neighbours read
    off :meth:`neighbor` — that a fabric overrides where it differs.
    """

    #: Registry key; also the value of ``NocConfig.topology``.
    name: ClassVar[str] = ""
    #: Whether routing partitions VCs into dateline classes (torus/ring).
    uses_vc_classes: ClassVar[bool] = False
    #: Output directions that carry inter-router channels, in the order
    #: :meth:`channels` enumerates them.
    directions: ClassVar[tuple[Direction, ...]] = MESH_DIRECTIONS

    width: int
    height: int
    routing: str

    # --- structure -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Traffic endpoints — always the full node grid."""
        return self.width * self.height

    @property
    def num_routers(self) -> int:
        """Number of switch instances."""
        return self.num_nodes

    @property
    def num_ports(self) -> int:
        """Uniform per-router port count (input and output)."""
        return len(self.ports)

    @property
    def ports(self) -> tuple[int, ...]:
        """Port ids of every router, in canonical (index) order."""
        return (LOCAL, *self.directions)

    @abc.abstractmethod
    def neighbor(self, router: int, direction: Direction) -> int | None:
        """Router reached from *router* through *direction*, or None where
        the fabric has no link there."""

    def channels(self) -> list[tuple[int, Direction, int]]:
        """All directed inter-router channels as (src, out direction, dst).

        Enumeration order is part of the determinism contract: channels
        are delivered in this order every cycle (router-major, each
        router's in :attr:`directions` order).
        """
        out = []
        for router in range(self.num_routers):
            for direction in self.directions:
                neighbor = self.neighbor(router, direction)
                if neighbor is not None:
                    out.append((router, direction, neighbor))
        return out

    # --- node/router mapping ---------------------------------------------------

    def router_of_node(self, node: int) -> int:
        """The router a node's NI is attached to."""
        self._check_node(node)
        return node

    def local_nodes(self, router: int) -> tuple[int, ...]:
        """Nodes attached to *router*, in local-slot order."""
        self._check(router)
        return (router,)

    def injection_port(self, node: int) -> int:
        """Port on ``router_of_node(node)`` where *node* injects/ejects."""
        self._check_node(node)
        return LOCAL

    def ejection_ports(self, router: int) -> frozenset[int]:
        """All ports of *router* that eject to a local NI."""
        return _LOCAL_ONLY

    # --- routing ---------------------------------------------------------------

    @abc.abstractmethod
    def route_candidates(self, current: int, dst_node: int) -> list[int]:
        """Productive output ports at router *current* toward *dst_node*.

        Returns the destination node's ejection port when the packet has
        arrived.  Every returned port must strictly reduce
        ``distance``-to-destination (minimal routing), and following any
        sequence of candidates must be deadlock-free under this fabric's
        VC discipline.
        """

    def live_candidates(
        self,
        current: int,
        dst_node: int,
        dead_routers: Container[int] = (),
        dead_links: Container[tuple[int, int]] = (),
    ) -> tuple[int, ...]:
        """:meth:`route_candidates` without the outputs over a dead link (a
        ``(router, port)`` of *dead_links*) or into a dead router; empty at
        a dead router, or when no output toward *dst_node* survives.  The
        one failure-aware route choice: ``Router.compute_route`` memoises
        it and the deadlock law proves it (tests/noc/test_topology_properties.py).
        """
        if current in dead_routers:
            return ()
        ejection = self.ejection_ports(current)
        return tuple(
            port
            for port in self.route_candidates(current, dst_node)
            if port in ejection
            or (
                (current, port) not in dead_links
                and self.neighbor(current, Direction(port)) not in dead_routers
            )
        )

    @abc.abstractmethod
    def distance(self, src_node: int, dst_node: int) -> int:
        """Minimal router-to-router hop count between two nodes' routers."""

    # --- VC classes (dateline deadlock avoidance) -------------------------------

    def next_vc_class(self, router: int, out_port: int, current: int) -> int:
        """VC class a packet enters when leaving *router* via *out_port*."""
        return 0

    def allowed_vcs(self, vc_class: int, num_vcs: int) -> range:
        """Downstream VC indices a packet of *vc_class* may claim: all of
        them, or under dateline classes the lower half before the dateline
        (even classes) and the upper half after it."""
        if not self.uses_vc_classes:
            return range(num_vcs)
        half = num_vcs // 2
        return range(0, half) if vc_class % 2 == 0 else range(half, num_vcs)

    # --- physical layout / labels ----------------------------------------------

    def thermal_neighbors(self, router: int) -> list[int]:
        """Laterally coupled routers for the lumped thermal model."""
        out = []
        for direction in THERMAL_ORDER:
            if direction in self.directions:
                neighbor = self.neighbor(router, direction)
                if neighbor is not None:
                    out.append(neighbor)
        return out

    def port_name(self, port: int) -> str:
        """Human-readable label for snapshots and telemetry."""
        if 0 <= port < 5:
            return Direction(port).name
        return f"LOCAL{port - 4}"

    def _check(self, router: int) -> None:
        if not 0 <= router < self.num_routers:
            raise ValueError(f"router {router} outside 0..{self.num_routers - 1}")

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside 0..{self.num_nodes - 1}")


class MeshTopology(Topology):
    """Coordinates, neighbors and channel enumeration for a W x H mesh.

    >>> m = MeshTopology(8, 8)
    >>> m.neighbor(0, Direction.EAST)
    1
    >>> m.neighbor(0, Direction.WEST) is None
    True
    """

    name = "mesh"

    def __init__(self, width: int, height: int, routing: str = "xy"):
        if width < 2 or height < 2:
            raise ValueError("mesh must be at least 2x2")
        self.width = width
        self.height = height
        self.routing = routing
        self._candidate_fn = CANDIDATE_FUNCTIONS[routing]

    def coordinates(self, router: int) -> tuple[int, int]:
        self._check(router)
        return router % self.width, router // self.width

    def neighbor(self, router: int, direction: Direction) -> int | None:
        """Neighbor id in *direction*, or None at a mesh edge."""
        x, y = self.coordinates(router)
        if direction is EAST:
            return router + 1 if x < self.width - 1 else None
        if direction is WEST:
            return router - 1 if x > 0 else None
        if direction is NORTH:
            return router + self.width if y < self.height - 1 else None
        if direction is SOUTH:
            return router - self.width if y > 0 else None
        raise ValueError("LOCAL has no neighbor")

    def route_candidates(self, current: int, dst_node: int) -> list[int]:
        return list(self._candidate_fn(current, dst_node, self.width))

    def distance(self, src_node: int, dst_node: int) -> int:
        return hop_count(src_node, dst_node, self.width)


# --- registry -----------------------------------------------------------------

#: name -> builder(NocConfig) -> Topology.  Populated by register_topology;
#: the concrete fabric modules self-register on import.
TOPOLOGY_BUILDERS: dict[str, Callable[["NocConfig"], Topology]] = {}


def register_topology(
    name: str, builder: Callable[["NocConfig"], Topology]
) -> None:
    """Register a fabric under ``NocConfig.topology == name``."""
    TOPOLOGY_BUILDERS[name] = builder


register_topology(
    "mesh", lambda noc: MeshTopology(noc.width, noc.height, routing=noc.routing)
)


def build_topology(noc: "NocConfig") -> Topology:
    """Instantiate the topology a :class:`~repro.config.NocConfig` names."""
    # The concrete fabric modules register themselves on first import.
    import repro.noc.cmesh  # noqa: F401  (self-registration import)
    import repro.noc.ring  # noqa: F401
    import repro.noc.torus  # noqa: F401

    try:
        builder = TOPOLOGY_BUILDERS[noc.topology]
    except KeyError:
        raise ValueError(
            f"unknown topology {noc.topology!r}; "
            f"registered: {sorted(TOPOLOGY_BUILDERS)}"
        ) from None
    return builder(noc)


def registered_topologies() -> list[str]:
    """Names accepted by :func:`build_topology` (import side effects included)."""
    import repro.noc.cmesh  # noqa: F401
    import repro.noc.ring  # noqa: F401
    import repro.noc.torus  # noqa: F401

    return sorted(TOPOLOGY_BUILDERS)
