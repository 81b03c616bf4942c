"""Cycle-level wormhole NoC simulator (Booksim2 substitute).

Primitives:

* :mod:`repro.noc.flit` — packets and flits.
* :mod:`repro.noc.routing` — directions and X-Y dimension-ordered routing.
* :mod:`repro.noc.topology` — the :class:`Topology` abstraction, the 2D
  mesh implementation, and the fabric registry.
* :mod:`repro.noc.torus` / :mod:`repro.noc.cmesh` / :mod:`repro.noc.ring`
  — the wraparound, concentrated, and loop fabrics.
* :mod:`repro.noc.arbiter` — round-robin arbitration.
* :mod:`repro.noc.vc` — virtual channels and input ports.  An input VC's
  state, route, output VC and owner are the paper's unified Buffer State
  Table entry: the one record of the worm it carries, alive under gating.

Router and network:

* :mod:`repro.noc.router` — 3/4-stage wormhole router with credit flow
  control, adaptive ECC, stress-relaxing bypass, and power gating.
* :mod:`repro.noc.power_gating` — gating controller (idle-driven and
  mode-driven).
* :mod:`repro.noc.network` — ties routers and channels into a fabric and
  advances the whole system cycle by cycle.
* :mod:`repro.noc.statistics` — run/epoch statistics collection.
"""

from repro.noc.flit import Flit, Packet
from repro.noc.network import Network
from repro.noc.routing import Direction, xy_route
from repro.noc.statistics import NetworkStatistics
from repro.noc.topology import (
    MeshTopology,
    Topology,
    build_topology,
    register_topology,
    registered_topologies,
)

__all__ = [
    "Direction",
    "Flit",
    "MeshTopology",
    "Network",
    "NetworkStatistics",
    "Packet",
    "Topology",
    "build_topology",
    "register_topology",
    "registered_topologies",
    "xy_route",
]
