"""Tests for the declarative fault-scenario engine (repro.faults.scenario)."""

from dataclasses import replace

import pytest

from repro import SyntheticPattern, generate_synthetic_trace
from repro.analysis.sanitizer import NocSanitizer
from repro.config import (
    INTELLINOC,
    SECDED_BASELINE,
    FaultConfig,
    SimulationConfig,
)
from repro.faults.scenario import (
    MAX_SCENARIO_BIT_ERROR_RATE,
    SCENARIO_PACKS,
    FaultScenario,
    IntermittentLink,
    LinkFailure,
    LinkStrike,
    QTableCorruption,
    RouterFailure,
    ScenarioEngine,
    ThermalAttack,
    TransientBurst,
    build_scenario,
    scenario_names,
)
from repro.metrics.summary import RunMetrics
from repro.noc.network import Network
from repro.telemetry import Telemetry
from repro.traffic.parsec import generate_parsec_trace
from repro.traffic.trace import Trace, TraceEvent
from repro.utils.rng import make_rng

NO_FAULTS = FaultConfig(base_bit_error_rate=0.0)


def make_network(technique=None, scenario=None, events=(), seed=7,
                 sanitizer=None, **noc_overrides):
    """A 4x4 network preserving the technique's own channel configuration."""
    tech = technique or SECDED_BASELINE
    noc_overrides.setdefault("width", 4)
    noc_overrides.setdefault("height", 4)
    noc = replace(tech.noc, **noc_overrides)
    config = SimulationConfig(technique=replace(tech, noc=noc), seed=seed,
                              faults=NO_FAULTS)
    return Network(config, Trace(list(events)), scenario=scenario,
                   sanitizer=sanitizer)


class TestEventValidation:
    def test_burst_window_must_be_nonempty(self):
        with pytest.raises(ValueError):
            TransientBurst(start=100, end=100, multiplier=10.0)
        with pytest.raises(ValueError):
            TransientBurst(start=-1, end=100, multiplier=10.0)
        with pytest.raises(ValueError):
            TransientBurst(start=0, end=100, multiplier=0.0)

    def test_failure_cycles_cannot_be_negative(self):
        with pytest.raises(ValueError):
            RouterFailure(cycle=-1, router=0)
        with pytest.raises(ValueError):
            LinkFailure(cycle=-1, src_router=0, direction=0)

    def test_intermittent_link_duty_cycle_bounds(self):
        with pytest.raises(ValueError):
            IntermittentLink(start=0, end=100, src_router=0, direction=0,
                             period=10, downtime=0)
        with pytest.raises(ValueError):
            IntermittentLink(start=0, end=100, src_router=0, direction=0,
                             period=10, downtime=10)
        with pytest.raises(ValueError):
            IntermittentLink(start=50, end=50, src_router=0, direction=0,
                             period=10, downtime=3)

    def test_thermal_attack_needs_targets_and_positive_ramp(self):
        with pytest.raises(ValueError):
            ThermalAttack(start=0, end=100, routers=(), delta_k=1.0)
        with pytest.raises(ValueError):
            ThermalAttack(start=0, end=100, routers=(1,), delta_k=-1.0)

    def test_link_strike_validation(self):
        with pytest.raises(ValueError):
            LinkStrike(cycle=-1, src_router=0, direction=1)
        with pytest.raises(ValueError):
            LinkStrike(cycle=0, src_router=0, direction=1, bit_errors=0)

    def test_qtable_corruption_needs_upsets(self):
        with pytest.raises(ValueError):
            QTableCorruption(cycle=10, upsets=0)

    def test_scenario_needs_name_and_reports_horizon(self):
        with pytest.raises(ValueError):
            FaultScenario(name="", events=())
        scenario = FaultScenario(name="x", events=(
            TransientBurst(start=0, end=500, multiplier=2.0),
            RouterFailure(cycle=900, router=1),
        ))
        assert scenario.horizon == 900
        struck = FaultScenario(name="s", events=(
            *scenario.events, LinkStrike(cycle=1200, src_router=0, direction=1),
        ))
        assert struck.horizon == 1200


def strike_engine(*strikes):
    """The engine of a 4x4 network whose scenario is *strikes*."""
    net = make_network(scenario=FaultScenario(name="s", events=strikes))
    assert net._strike == net._scenario.strike
    return net._scenario


class TestLinkStrike:
    def test_fires_at_or_after_cycle(self):
        engine = strike_engine(
            LinkStrike(cycle=10, src_router=3, direction=1, bit_errors=2)
        )
        assert engine.strike(5, 3, 1) == 0  # too early
        assert engine.strike(12, 3, 1) == 2
        assert engine.events_fired == 1

    def test_fires_only_once(self):
        engine = strike_engine(LinkStrike(cycle=0, src_router=3, direction=1))
        assert engine.strike(0, 3, 1) == 1
        assert engine.strike(1, 3, 1) == 0
        assert engine.events_fired == 1

    def test_matches_router_and_direction(self):
        engine = strike_engine(LinkStrike(cycle=0, src_router=3, direction=1))
        assert engine.strike(0, 3, 2) == 0
        assert engine.strike(0, 4, 1) == 0
        assert engine.events_fired == 0
        assert engine.strike(0, 3, 1) == 1

    def test_same_cycle_strikes_fire_in_scenario_order(self):
        engine = strike_engine(
            LinkStrike(cycle=0, src_router=3, direction=1, bit_errors=1),
            LinkStrike(cycle=0, src_router=3, direction=1, bit_errors=3),
        )
        assert engine.strike(0, 3, 1) == 1
        assert engine.strike(0, 3, 1) == 3
        assert engine.strike(0, 3, 1) == 0

    def test_same_link_strikes_fire_earliest_cycle_first(self):
        # Regression: strikes listed out of cycle order on one link used to
        # fire in listing order, so a late strike could consume an early
        # traversal and leave the early one pending forever.
        engine = strike_engine(
            LinkStrike(cycle=20, src_router=3, direction=1, bit_errors=5),
            LinkStrike(cycle=5, src_router=3, direction=1, bit_errors=2),
        )
        assert engine.strike(5, 3, 1) == 2  # cycle-5 strike, not cycle-20
        assert engine.strike(10, 3, 1) == 0  # cycle-20 strike not due yet
        assert engine.strike(20, 3, 1) == 5
        assert engine.events_fired == 2

    def test_no_strikes_means_no_hook(self):
        scenario = FaultScenario(name="k", events=(RouterFailure(cycle=5, router=6),))
        assert make_network(scenario=scenario)._strike is None


class TestScenarioEngine:
    def test_burst_scales_rate_only_inside_window(self):
        scenario = FaultScenario(name="b", events=(
            TransientBurst(start=10, end=20, multiplier=100.0),
        ))
        net = make_network(scenario=scenario)
        engine = net._scenario
        engine.tick(0)
        assert engine.scaled_rate(1e-6, 0) == 1e-6  # before the window
        engine.tick(10)
        assert engine.scaled_rate(1e-6, 0) == pytest.approx(1e-4)
        engine.tick(20)
        assert engine.scaled_rate(1e-6, 0) == 1e-6  # after the window

    def test_regional_bursts_multiply_and_clamp(self):
        scenario = FaultScenario(name="b", events=(
            TransientBurst(start=0, end=100, multiplier=100.0, routers=(2,)),
            TransientBurst(start=0, end=100, multiplier=1e9, routers=(3,)),
        ))
        net = make_network(scenario=scenario)
        engine = net._scenario
        engine.tick(0)
        assert engine.scaled_rate(1e-6, 0) == 1e-6  # untargeted router
        assert engine.scaled_rate(1e-6, 2) == pytest.approx(1e-4)
        assert engine.scaled_rate(1e-6, 3) == MAX_SCENARIO_BIT_ERROR_RATE

    def test_intermittent_link_duty_cycles_the_channel(self):
        # router 5 is interior on the 4x4 mesh; direction 1 is EAST
        outage = IntermittentLink(start=10, end=100, src_router=5, direction=1,
                                  period=20, downtime=5)
        net = make_network(scenario=FaultScenario(name="o", events=(outage,)))
        channel = net.find_channel(5, 1)
        assert channel is not None
        engine = net._scenario
        engine.tick(0)
        assert not channel.down
        engine.tick(10)
        assert channel.down  # first downtime cycles of the period
        engine.tick(15)
        assert not channel.down
        engine.tick(30)
        assert channel.down  # next period
        engine.tick(100)
        assert not channel.down  # window over

    def test_router_failure_fires_once_and_marks_dead(self):
        scenario = FaultScenario(name="k", events=(RouterFailure(cycle=5, router=6),))
        net = make_network(scenario=scenario)
        engine = net._scenario
        engine.tick(4)
        assert not net.routers[6].dead
        engine.tick(5)
        assert net.routers[6].dead
        assert engine.events_fired == 1
        engine.tick(6)
        assert engine.events_fired == 1  # one-shot

    def test_thermal_attack_ramps_and_caps_temperature(self):
        attack = ThermalAttack(start=0, end=1000, routers=(1,), delta_k=50.0,
                               stride=10, cap_k=400.0)
        net = make_network(scenario=FaultScenario(name="t", events=(attack,)))
        engine = net._scenario
        start = float(net.thermal.temperatures[1])
        engine.tick(0)
        assert float(net.thermal.temperatures[1]) == pytest.approx(start + 50.0)
        for c in range(1, 101):
            engine.tick(c)
        assert float(net.thermal.temperatures[1]) == 400.0  # capped

    def test_qtable_corruption_is_a_noop_without_agents(self):
        scenario = FaultScenario(name="q", events=(QTableCorruption(cycle=0),))
        net = make_network(technique=SECDED_BASELINE, scenario=scenario)
        net._scenario.tick(0)  # static policy: no agents, no crash
        assert net._scenario.events_fired == 0


class TestPackRegistry:
    def test_four_packs_registered(self):
        assert scenario_names() == sorted(SCENARIO_PACKS)
        for name in ("transient-storm", "aging-cliff", "hotspot-meltdown",
                     "link-rot"):
            assert name in SCENARIO_PACKS

    def test_unknown_pack_raises_with_choices(self):
        net = make_network()
        with pytest.raises(ValueError, match="unknown fault scenario"):
            build_scenario("no-such-pack", net.topology)

    @pytest.mark.parametrize("name", sorted(SCENARIO_PACKS))
    def test_packs_build_against_small_fabrics(self, name):
        for side in (2, 4):
            topology = make_network(width=side, height=side).topology
            scenario = build_scenario(name, topology)
            assert scenario.name == name
            assert scenario.events
            assert scenario.horizon > 0

    def test_config_string_builds_the_engine(self):
        net = make_network(fault_scenario="aging-cliff")
        assert net._scenario is not None
        assert net._scenario.scenario.name == "aging-cliff"

    def test_empty_config_string_means_no_engine(self):
        net = make_network()
        assert net._scenario is None


#: Every registered fabric, and the mesh under both routing families.
FABRICS = {
    "mesh-xy": {},
    "mesh-west_first": {"routing": "west_first"},
    "torus": {"topology": "torus"},
    "ring": {"topology": "ring"},
    "cmesh": {"topology": "cmesh", "concentration": 2},
}


def run_pack(name, technique, duration=3000, seed=7, tmp_path=None, rate=None,
             **fabric):
    """One 4x4 run under pack *name*: PARSEC swa traffic, or uniform
    traffic at *rate* (the benchmark's trace) when one is given."""
    noc = replace(technique.noc, width=4, height=4, fault_scenario=name, **fabric)
    tech = replace(technique, noc=noc)
    if rate is None:
        trace = generate_parsec_trace(
            "swa", noc.width, noc.height, duration, noc.flits_per_packet, seed
        )
    else:
        trace = generate_synthetic_trace(
            SyntheticPattern.UNIFORM, noc.num_nodes, noc.width, duration, rate,
            noc.flits_per_packet, make_rng(seed, f"bench/uniform/{rate}"),
        )
    sanitizer = NocSanitizer(
        interval=8, watchdog_cycles=20_000,
        snapshot_dir=None if tmp_path is None else tmp_path / "san",
    )
    config = SimulationConfig(technique=tech, seed=seed)
    net = Network(config, trace, sanitizer=sanitizer)
    net.run_to_completion(duration * 4 + 50_000)
    return net


def assert_no_claims(net, run):
    for router in net.routers:
        assert not router._open_vcs, f"{run}: router {router.id} open worms"
        for port in router.input_ports.values():
            for vci, vc in enumerate(port.vcs):
                assert vc.owner is None, f"{run}: router {router.id} {port.direction}/{vci}"


class TestPacksEndToEnd:
    @pytest.mark.parametrize("name", sorted(SCENARIO_PACKS))
    def test_pack_is_sanitizer_clean_and_accounting_balances(
        self, name, tmp_path
    ):
        """The no-silent-loss and termination law: under every pack, on
        every fabric and routing, every injected packet is delivered,
        dropped-with-reason, or refused; NoCSan agrees throughout the run;
        and the drained network holds no VC claim and no open worm."""
        runs = {"mesh-xy, PARSEC swa, seed 7": {}}
        for fabric, overrides in FABRICS.items():
            for seed in (0, 1):
                runs[f"{fabric}, seed {seed}"] = dict(seed=seed, rate=0.03, **overrides)
        for run, inputs in runs.items():
            net = run_pack(name, INTELLINOC, tmp_path=tmp_path, **inputs)
            s = net.stats
            assert s.packets_injected > 0, run
            assert s.packets_resolved == s.packets_injected, run
            assert (
                s.packets_completed + s.packets_dropped + s.packets_undeliverable
                == s.packets_injected
            ), run
            assert net.sanitizer.violations_seen == 0, run
            assert net.sanitizer.checks_run > 0, run
            assert_no_claims(net, run)

    def test_aging_cliff_8x8_xy_seed2_terminates(self):
        """The regression the termination law grew from: on the 8x8 X-Y
        mesh a drop left a VC claimed for a worm that had already left its
        upstream router, and four packets waited on it until the cycle cap
        (68 000).  Every packet now resolves, at cycle 4 527."""
        noc = replace(INTELLINOC.noc, fault_scenario="aging-cliff")
        trace = generate_synthetic_trace(
            SyntheticPattern.UNIFORM, noc.num_nodes, noc.width, 4500, 0.02,
            noc.flits_per_packet, make_rng(2, "bench/uniform/0.02"),
        )
        config = SimulationConfig(technique=replace(INTELLINOC, noc=noc), seed=2)
        net = Network(config, trace)
        assert net.run_to_completion(4500 * 4 + 50_000) < 5000
        assert net.stats.packets_resolved == net.stats.packets_injected
        assert_no_claims(net, "8x8 seed 2")

    def test_aging_cliff_actually_drops_packets(self, tmp_path):
        """The destructive pack must exercise the accounting, not just
        trivially balance at zero drops."""
        net = run_pack("aging-cliff", INTELLINOC, tmp_path=tmp_path)
        s = net.stats
        assert len(net.dead_routers) == 2
        assert s.packets_dropped + s.packets_undeliverable > 0
        assert s.delivery_ratio < 1.0
        assert s.flits_dropped > 0

    def test_scenario_runs_are_seed_deterministic(self):
        a = run_pack("aging-cliff", INTELLINOC, duration=1500, seed=11)
        b = run_pack("aging-cliff", INTELLINOC, duration=1500, seed=11)
        for net in (a, b):
            assert net._scenario.events_fired > 0
        assert a.cycle == b.cycle
        assert a.stats.packets_injected == b.stats.packets_injected
        assert a.stats.packets_completed == b.stats.packets_completed
        assert a.stats.packets_dropped == b.stats.packets_dropped
        assert a.stats.packets_undeliverable == b.stats.packets_undeliverable
        assert a.stats.latency_sum == b.stats.latency_sum
        assert a.stats.flits_dropped == b.stats.flits_dropped


class TestZeroOverhead:
    """The scenario analogue of telemetry's zero-overhead contract."""

    @staticmethod
    def fingerprint(net):
        net.run_to_completion(60_000)
        s = net.stats
        return (
            net.cycle,
            s.packets_injected,
            s.packets_completed,
            s.flits_delivered,
            s.latency_sum,
            s.total_retransmitted_flits,
            dict(s.mode_cycles),
        )

    #: Traffic whose first packet (0 -> 5) leaves router 0 through EAST.
    EVENTS = [TraceEvent(c, c % 16, (c + 5) % 16, 4) for c in range(0, 900, 3)]

    IDLE = FaultScenario(name="idle", events=(
        TransientBurst(start=10**9, end=10**9 + 1, multiplier=2.0),
        RouterFailure(cycle=10**9, router=0),
    ))
    LATE_STRIKE = FaultScenario(name="late-strike", events=(
        LinkStrike(cycle=10**9, src_router=0, direction=1),
    ))

    @pytest.mark.parametrize(
        "technique, idle",
        [(SECDED_BASELINE, IDLE), (INTELLINOC, IDLE),
         (SECDED_BASELINE, LATE_STRIKE), (INTELLINOC, LATE_STRIKE)],
        ids=["secded", "intellinoc", "secded-late-strike",
             "intellinoc-late-strike"],
    )
    def test_no_scenario_run_matches_idle_scenario_run(self, technique, idle):
        """A scenario whose events never fire must be bit-transparent:
        the hooks are present but must not perturb anything."""
        baseline = self.fingerprint(make_network(technique=technique,
                                                 events=self.EVENTS))
        with_idle = self.fingerprint(make_network(technique=technique,
                                                  events=self.EVENTS,
                                                  scenario=idle))
        assert with_idle == baseline

    @pytest.mark.parametrize("bit_errors, counter", [
        (1, "corrected_flits"), (2, "hop_retransmissions"),
    ])
    def test_a_fired_strike_reaches_final_and_run_metrics(
        self, bit_errors, counter
    ):
        """A strike that fires is counted where every run total is: the
        `final` record and `RunMetrics`."""
        tech = replace(SECDED_BASELINE,
                       noc=replace(SECDED_BASELINE.noc, width=4, height=4))
        strike = FaultScenario(name="strike", events=(
            LinkStrike(cycle=0, src_router=0, direction=1, bit_errors=bit_errors),
        ))
        tel = Telemetry()
        net = Network(
            SimulationConfig(technique=tech, seed=7, faults=NO_FAULTS),
            Trace(list(self.EVENTS)), telemetry=tel, scenario=strike,
        )
        net.run_to_completion(60_000)
        net.finalize_telemetry()
        assert net._scenario.events_fired == 1
        (final,) = tel.events_of("final")
        assert final[counter] == 1
        assert getattr(RunMetrics.from_network(net).reliability, counter) == 1
        (fired,) = [e for e in tel.events_of("scenario")
                    if e["event"] == "link_strike"]
        assert fired["bit_errors"] == bit_errors
