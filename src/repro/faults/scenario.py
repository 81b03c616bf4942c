"""Declarative, seed-deterministic fault timelines (scenario packs).

The stochastic transient model answers "how often do bits flip at this
temperature"; this module answers "what happens to the run when faults
*accumulate over time*": transient storms sweeping a region, links duty-
cycling in and out, routers dying mid-flight, thermal attacks pushing the
Eq. 3 error rate up, control-plane upsets corrupting Q-tables, single
strikes on one link.  A scenario is a plain tuple of frozen event
dataclasses; :class:`ScenarioEngine` replays it against a live network,
one ``tick`` per simulated cycle.

Determinism: everything structural (kills, outages, ramps) depends only on
the event timeline; the single stochastic event type (Q-table corruption)
draws from the run's seeded ``"scenario"`` RNG stream, so a scenario run
remains a pure function of ``(config, trace, seed)``.

Named packs are registered in :data:`SCENARIO_PACKS` and are built against
a concrete topology (event coordinates scale with fabric size); select one
with ``NocConfig.fault_scenario`` or ``--scenario`` on the CLI.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Union

import numpy as np

if TYPE_CHECKING:  # the engine drives a Network; import would be circular
    from repro.noc.topology import Topology

#: Ceiling on the scenario-scaled per-bit error rate.  A burst multiplier
#: can push the Eq. 3 rate arbitrarily high; beyond ~2e-2 per bit nearly
#: every 128-bit flit is multi-bit faulty and the run degenerates into a
#: retransmission livelock rather than a harsher storm.
MAX_SCENARIO_BIT_ERROR_RATE = 0.02

#: Reasons attached to dropped packets (and to dead channels).
REASON_DEAD_ROUTER = "dead_router"
REASON_DEAD_LINK = "dead_link"
REASON_UNDELIVERABLE = "undeliverable"


# --- event types -------------------------------------------------------------


@dataclass(frozen=True)
class TransientBurst:
    """Multiply the Eq. 3 bit-error rate on links *out of* a router set.

    Active over ``[start, end)``; an empty ``routers`` tuple covers the
    whole fabric.  Overlapping bursts multiply.
    """

    start: int
    end: int
    multiplier: float
    routers: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("burst window must be non-empty and non-negative")
        if self.multiplier <= 0.0:
            raise ValueError("burst multiplier must be positive")


@dataclass(frozen=True)
class RouterFailure:
    """Permanent router death at ``cycle`` (hard fault; never recovers)."""

    cycle: int
    router: int

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("failure cycle cannot be negative")


@dataclass(frozen=True)
class LinkFailure:
    """Permanent death of one directed channel at ``cycle``."""

    cycle: int
    src_router: int
    direction: int  # output-port direction index at the source router

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("failure cycle cannot be negative")


@dataclass(frozen=True)
class IntermittentLink:
    """Duty-cycled outage of one directed channel.

    Within ``[start, end)`` the link is down for the first ``downtime``
    cycles of every ``period``-cycle window; queued flits are *held*, not
    lost, so the outage shows up as latency, never as packet loss.
    """

    start: int
    end: int
    src_router: int
    direction: int
    period: int
    downtime: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("outage window must be non-empty and non-negative")
        if self.period < 2 or not 0 < self.downtime < self.period:
            raise ValueError("need 0 < downtime < period (and period >= 2)")


@dataclass(frozen=True)
class ThermalAttack:
    """Forced temperature ramp on a router set.

    Every ``stride`` cycles within ``[start, end)``, ``delta_k`` kelvin are
    added to each targeted router (capped at ``cap_k``), dragging the
    Eq. 3 error rate up through the thermal model's own dynamics.
    """

    start: int
    end: int
    routers: tuple[int, ...]
    delta_k: float
    stride: int = 100
    cap_k: float = 420.0

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("attack window must be non-empty and non-negative")
        if not self.routers:
            raise ValueError("a thermal attack needs at least one target")
        if self.delta_k <= 0.0 or self.stride < 1:
            raise ValueError("need positive delta_k and stride")


@dataclass(frozen=True)
class QTableCorruption:
    """Control-plane upset: flip bits in random live Q-table entries.

    A no-op for techniques without RL agents.  Draws come from the seeded
    ``"scenario"`` RNG stream, preserving run determinism.
    """

    cycle: int
    upsets: int = 4
    high_bits_only: bool = True

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("corruption cycle cannot be negative")
        if self.upsets < 1:
            raise ValueError("need at least one upset")


@dataclass(frozen=True)
class LinkStrike:
    """A pulsed particle strike: ``bit_errors`` flipped bits on the first
    flit over one directed channel at or after ``cycle`` (fires once).  It
    drives one recovery path (correction, per-hop or end-to-end retry)."""

    cycle: int
    src_router: int
    direction: int  # output-port direction index at the source router
    bit_errors: int = 1

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("strike cycle cannot be negative")
        if self.bit_errors < 1:
            raise ValueError("a strike must flip at least one bit")


ScenarioEvent = Union[
    TransientBurst,
    RouterFailure,
    LinkFailure,
    IntermittentLink,
    ThermalAttack,
    QTableCorruption,
    LinkStrike,
]

_ONESHOT_TYPES = (RouterFailure, LinkFailure, QTableCorruption)
_AT_CYCLE_TYPES = (*_ONESHOT_TYPES, LinkStrike)


@dataclass(frozen=True)
class FaultScenario:
    """A named, immutable fault timeline."""

    name: str
    events: tuple[ScenarioEvent, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")

    @property
    def horizon(self) -> int:
        """Last cycle at which any event is still active."""
        last = 0
        for event in self.events:
            if isinstance(event, _AT_CYCLE_TYPES):
                last = max(last, event.cycle)
            else:
                last = max(last, event.end)
        return last


# --- the engine --------------------------------------------------------------


class ScenarioEngine:
    """Replays one :class:`FaultScenario` against a live network.

    ``tick(cycle)`` is called by ``Network.step`` at the top of every
    cycle; :meth:`scaled_rate` and :meth:`strike` are consulted by the
    error-sampling path.  All are cheap: one-shot events sit in a
    cycle-sorted list behind a single pointer, strikes in cycle-sorted
    per-link lists, and the burst multiplier is a cached per-router array
    recomputed only when the active-burst set changes.
    """

    def __init__(self, scenario: FaultScenario, network: Any) -> None:
        self.scenario = scenario
        self.network = network
        self.events_fired = 0
        self._oneshots: list[RouterFailure | LinkFailure | QTableCorruption] = sorted(
            (e for e in scenario.events if isinstance(e, _ONESHOT_TYPES)),
            key=lambda e: e.cycle,
        )
        self._next_oneshot = 0
        #: Unfired strikes per link, earliest first (ties in scenario order).
        self.pending_strikes: dict[tuple[int, int], list[LinkStrike]] = {}
        for strike in sorted(
            (e for e in scenario.events if isinstance(e, LinkStrike)),
            key=lambda e: e.cycle,
        ):
            self.pending_strikes.setdefault(
                (strike.src_router, strike.direction), []
            ).append(strike)
        self._bursts: list[TransientBurst] = [
            e for e in scenario.events if isinstance(e, TransientBurst)
        ]
        self._outages: list[IntermittentLink] = [
            e for e in scenario.events if isinstance(e, IntermittentLink)
        ]
        self._outage_down = [False] * len(self._outages)
        self._attacks: list[ThermalAttack] = [
            e for e in scenario.events if isinstance(e, ThermalAttack)
        ]
        self._active_bursts: frozenset[int] = frozenset()
        self._multipliers: np.ndarray | None = None
        self._qrng: np.random.Generator | None = None

    # --- hot-path hooks ------------------------------------------------------

    def scaled_rate(self, rate: float, src_router: int) -> float:
        """Apply the active burst multiplier to one link's error rate."""
        m = self._multipliers
        if m is None:
            return rate
        return min(rate * float(m[src_router]), MAX_SCENARIO_BIT_ERROR_RATE)

    def strike(self, cycle: int, src_router: int, direction: int) -> int:
        """Bit errors the earliest due strike on this link puts on this
        traversal (consuming it); 0 when none is due."""
        bucket = self.pending_strikes.get((src_router, direction))
        if not bucket or bucket[0].cycle > cycle:
            return 0
        bit_errors = bucket.pop(0).bit_errors
        self.events_fired += 1
        self.network.note_scenario_event(
            cycle, "link_strike", src=src_router, direction=direction,
            bit_errors=bit_errors,
        )
        return bit_errors

    def tick(self, cycle: int) -> None:
        """Advance the timeline to *cycle*, firing whatever is due."""
        oneshots = self._oneshots
        while (
            self._next_oneshot < len(oneshots)
            and oneshots[self._next_oneshot].cycle <= cycle
        ):
            self._fire(oneshots[self._next_oneshot], cycle)
            self._next_oneshot += 1
        if self._bursts:
            self._update_bursts(cycle)
        if self._outages:
            self._update_outages(cycle)
        if self._attacks:
            self._update_attacks(cycle)

    # --- event dispatch ------------------------------------------------------

    def _fire(
        self, event: RouterFailure | LinkFailure | QTableCorruption, cycle: int
    ) -> None:
        net = self.network
        if isinstance(event, RouterFailure):
            if 0 <= event.router < len(net.routers):
                net.fail_router(event.router, cycle)
                self.events_fired += 1
        elif isinstance(event, LinkFailure):
            if net.fail_link(event.src_router, event.direction, cycle):
                self.events_fired += 1
        else:
            self._corrupt_qtables(event, cycle)

    def _corrupt_qtables(self, event: QTableCorruption, cycle: int) -> None:
        from repro.faults.control_plane import corrupt_random_entry

        net = self.network
        agents = net.policy.agents
        if not agents:
            return  # static/heuristic control plane: nothing to upset
        if self._qrng is None:
            self._qrng = net.rngs.stream("scenario")
        rng = self._qrng
        corrupted = 0
        for _ in range(event.upsets):
            agent = agents[int(rng.integers(0, len(agents)))]
            if corrupt_random_entry(
                agent.qtable, rng, high_bits_only=event.high_bits_only
            ):
                corrupted += 1
        self.events_fired += 1
        net.note_scenario_event(
            cycle, "qtable_corruption", upsets=event.upsets, corrupted=corrupted
        )

    # --- windowed events -----------------------------------------------------

    def _update_bursts(self, cycle: int) -> None:
        active = frozenset(
            i
            for i, burst in enumerate(self._bursts)
            if burst.start <= cycle < burst.end
        )
        if active == self._active_bursts:
            return
        net = self.network
        for i in sorted(active - self._active_bursts):
            burst = self._bursts[i]
            net.note_scenario_event(
                cycle, "burst_start", multiplier=burst.multiplier,
                routers=len(burst.routers) or "all",
            )
            self.events_fired += 1
        for i in sorted(self._active_bursts - active):
            net.note_scenario_event(cycle, "burst_end")
        self._active_bursts = active
        net.invalidate_hop_rates()  # the multipliers below feed scaled_rate
        if not active:
            self._multipliers = None
            return
        multipliers = np.ones(len(net.routers), dtype=np.float64)
        for i in sorted(active):
            burst = self._bursts[i]
            if burst.routers:
                for rid in burst.routers:
                    if 0 <= rid < multipliers.shape[0]:
                        multipliers[rid] *= burst.multiplier
            else:
                multipliers *= burst.multiplier
        self._multipliers = multipliers

    def _update_outages(self, cycle: int) -> None:
        net = self.network
        for i, outage in enumerate(self._outages):
            in_window = outage.start <= cycle < outage.end
            down = (
                in_window
                and (cycle - outage.start) % outage.period < outage.downtime
            )
            if down == self._outage_down[i]:
                continue
            channel = net.find_channel(outage.src_router, outage.direction)
            if channel is None or channel.dead:
                self._outage_down[i] = down
                continue
            channel.set_down(down)
            self._outage_down[i] = down
            if down:
                self.events_fired += 1
            net.note_scenario_event(
                cycle,
                "link_outage" if down else "link_restored",
                src=outage.src_router,
                direction=outage.direction,
            )

    def _update_attacks(self, cycle: int) -> None:
        net = self.network
        for attack in self._attacks:
            if not (attack.start <= cycle < attack.end):
                continue
            if (cycle - attack.start) % attack.stride:
                continue
            thermal = net.thermal
            temps = thermal.temperatures
            for rid in attack.routers:
                if 0 <= rid < temps.shape[0]:
                    temps[rid] = min(temps[rid] + attack.delta_k, attack.cap_k)
            thermal.peak_temperature_k = max(
                thermal.peak_temperature_k, float(np.max(temps))
            )
            net.invalidate_hop_rates()  # error rates follow temperature
            self.events_fired += 1
            net.note_scenario_event(
                cycle, "thermal_attack", routers=len(attack.routers),
                delta_k=attack.delta_k,
            )


# --- named packs -------------------------------------------------------------

ScenarioBuilder = Callable[["Topology"], FaultScenario]

SCENARIO_PACKS: dict[str, ScenarioBuilder] = {}


def register_scenario(name: str, builder: ScenarioBuilder) -> None:
    """Register a pack (campaigns select it via ``NocConfig.fault_scenario``)."""
    if not name:
        raise ValueError("scenario packs need a non-empty name")
    SCENARIO_PACKS[name] = builder


def scenario_names() -> list[str]:
    """Registered pack names, sorted for stable CLI help and errors."""
    return sorted(SCENARIO_PACKS)


def build_scenario(name: str, topology: "Topology") -> FaultScenario:
    """Instantiate the named pack against a concrete topology."""
    try:
        builder = SCENARIO_PACKS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault scenario {name!r}; choose from {scenario_names()}"
        ) from None
    return builder(topology)


def _pick_channels(topology: "Topology", count: int) -> list[tuple[int, int]]:
    """Deterministically spread picks over the fabric's directed channels."""
    channels = [(src, int(direction)) for src, direction, _ in topology.channels()]
    if not channels:
        return []
    picks = []
    for i in range(count):
        picks.append(channels[((i + 1) * len(channels)) // (count + 1) - 1])
    return picks


def _transient_storm(topology: "Topology") -> FaultScenario:
    """Escalating soft-error storms, then a control-plane upset.

    No structural damage: every packet still delivers, but retransmission
    and silent-corruption counters climb through three widening bursts.
    """
    nr = topology.num_routers
    region = tuple(range(max(1, nr // 2)))
    hot_corner = tuple(range(max(1, nr // 4)))
    return FaultScenario(
        name="transient-storm",
        events=(
            TransientBurst(start=300, end=1100, multiplier=200.0),
            TransientBurst(start=1500, end=2500, multiplier=1500.0, routers=region),
            QTableCorruption(cycle=1800, upsets=6),
            TransientBurst(start=2900, end=3700, multiplier=4000.0, routers=hot_corner),
        ),
    )


def _aging_cliff(topology: "Topology") -> FaultScenario:
    """Wear-out endgame: rising error floor, then two routers die."""
    nr = topology.num_routers
    first = max(1, nr // 3)
    second = max(1, (2 * nr) // 3)
    if second == first:
        second = min(nr - 1, first + 1)
    return FaultScenario(
        name="aging-cliff",
        events=(
            TransientBurst(start=500, end=4000, multiplier=300.0),
            RouterFailure(cycle=900, router=first),
            RouterFailure(cycle=2200, router=second),
        ),
    )


def _hotspot_meltdown(topology: "Topology") -> FaultScenario:
    """Thermal attack on a center cluster until the hottest router dies."""
    nr = topology.num_routers
    hot = nr // 2
    cluster = tuple(sorted({max(0, hot - 1), hot, min(nr - 1, hot + 1)}))
    return FaultScenario(
        name="hotspot-meltdown",
        events=(
            ThermalAttack(
                start=300, end=3600, routers=cluster,
                delta_k=2.5, stride=100, cap_k=415.0,
            ),
            RouterFailure(cycle=2400, router=hot),
        ),
    )


def _link_rot(topology: "Topology") -> FaultScenario:
    """Interconnect decay: two links flap, a third fails for good."""
    picks = _pick_channels(topology, 3)
    events: list[ScenarioEvent] = []
    if len(picks) > 0:
        src, direction = picks[0]
        events.append(
            IntermittentLink(
                start=400, end=3600, src_router=src, direction=direction,
                period=300, downtime=90,
            )
        )
    if len(picks) > 1:
        src, direction = picks[1]
        events.append(
            IntermittentLink(
                start=650, end=3600, src_router=src, direction=direction,
                period=450, downtime=140,
            )
        )
    if len(picks) > 2:
        src, direction = picks[2]
        events.append(LinkFailure(cycle=2000, src_router=src, direction=direction))
    return FaultScenario(name="link-rot", events=tuple(events))


register_scenario("transient-storm", _transient_storm)
register_scenario("aging-cliff", _aging_cliff)
register_scenario("hotspot-meltdown", _hotspot_meltdown)
register_scenario("link-rot", _link_rot)
