"""Tests for the NoCSan runtime half (repro.analysis.sanitizer)."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.sanitizer import (
    DEFAULT_INTERVAL,
    DEFAULT_WATCHDOG_CYCLES,
    InvariantViolation,
    NocSanitizer,
)
from repro.config import (
    INTELLINOC,
    SECDED_BASELINE,
    FaultConfig,
    NocConfig,
    SimulationConfig,
)
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.power_gating import PowerState
from repro.noc.routing import Direction
from repro.noc.vc import VcState
from repro.traffic.trace import Trace, TraceEvent

NO_FAULTS = FaultConfig(base_bit_error_rate=0.0)
MESH_2X2 = NocConfig(width=2, height=2)


def small_network(events, sanitizer=None, technique=None, seed=7):
    tech = replace(technique or SECDED_BASELINE, noc=MESH_2X2)
    config = SimulationConfig(technique=tech, seed=seed, faults=NO_FAULTS)
    return Network(config, Trace(list(events)), sanitizer=sanitizer)


def make_sanitizer(tmp_path, interval=4, watchdog_cycles=64):
    return NocSanitizer(
        interval=interval, watchdog_cycles=watchdog_cycles,
        snapshot_dir=tmp_path / "sanitizer",
    )


class TestCleanRuns:
    def test_clean_run_has_zero_violations(self, tmp_path):
        san = make_sanitizer(tmp_path, interval=1, watchdog_cycles=2000)
        events = [TraceEvent(c, c % 4, (c + 1) % 4, 4) for c in range(0, 60, 5)]
        net = small_network(events, sanitizer=san)
        net.run_to_completion(4000)
        assert net.stats.packets_completed == len(events)
        assert san.checks_run > 50
        assert san.violations_seen == 0
        assert not (tmp_path / "sanitizer").exists()  # no snapshot dumped

    def test_sanitized_run_matches_unsanitized(self, tmp_path):
        events = [TraceEvent(c, c % 4, (c + 2) % 4, 4) for c in range(0, 40, 4)]
        plain = small_network(events)
        plain.run_to_completion(4000)
        san = make_sanitizer(tmp_path, interval=1, watchdog_cycles=2000)
        checked = small_network(events, sanitizer=san)
        checked.run_to_completion(4000)
        assert checked.cycle == plain.cycle
        assert checked.stats.packets_completed == plain.stats.packets_completed
        assert checked.stats.latency_sum == plain.stats.latency_sum
        assert sorted(checked.stats.latencies) == sorted(plain.stats.latencies)

    def test_intellinoc_qtables_stay_finite(self, tmp_path):
        san = make_sanitizer(tmp_path, interval=8, watchdog_cycles=4000)
        tech = replace(INTELLINOC, noc=replace(INTELLINOC.noc, width=2, height=2))
        config = SimulationConfig(technique=tech, seed=3, faults=NO_FAULTS)
        events = [TraceEvent(c, c % 4, (c + 1) % 4, 4) for c in range(0, 50, 5)]
        net = Network(config, Trace(events), sanitizer=san)
        net.run_to_completion(6000)
        assert san.checks_run > 0
        assert san.violations_seen == 0


class TestDeadlockWatchdog:
    def test_wedged_mesh_trips_watchdog_and_dumps_snapshot(self, tmp_path):
        san = make_sanitizer(tmp_path, interval=4, watchdog_cycles=64)
        net = small_network([TraceEvent(0, 0, 3, 4)], sanitizer=san)
        # Wedge: claim every VC on router 0's LOCAL input port for a packet
        # that never comes, so the queued packet can never win a VC and no
        # flit ever progresses.
        phantom = Packet.create(1, 3, 4, 0)
        port = net.routers[0].input_ports[Direction.LOCAL]
        for vci in range(len(port.vcs)):
            port.claim(vci, phantom)
        with pytest.raises(InvariantViolation) as exc_info:
            net.run_to_completion(5000)
        violation = exc_info.value
        assert violation.check == "deadlock-watchdog"
        assert san.violations_seen == 1
        # The structured snapshot landed on disk and is auditable JSON.
        assert violation.snapshot_path is not None
        payload = json.loads(violation.snapshot_path.read_text())
        assert payload["violation"]["check"] == "deadlock-watchdog"
        assert payload["cycle"] == violation.cycle
        assert len(payload["routers"]) == 4
        assert payload["busy_sources"][0]["node"] == 0
        local = payload["routers"][0]["ports"]["LOCAL"]
        assert local["claimed"] == [0, 1, 2, 3]
        assert [vc["owner"] for vc in local["vcs"]] == [phantom.pid] * 4

    def test_slow_but_live_network_does_not_trip(self, tmp_path):
        san = make_sanitizer(tmp_path, interval=4, watchdog_cycles=64)
        # Widely spaced packets: long quiet gaps, but no pending work while
        # quiet, so the watchdog must not fire.
        events = [TraceEvent(c, 0, 3, 4) for c in (0, 300, 600)]
        net = small_network(events, sanitizer=san)
        net.run_to_completion(4000)
        assert net.stats.packets_completed == 3
        assert san.violations_seen == 0


class TestStateAudits:
    def test_mutated_vc_record_is_caught(self, tmp_path):
        san = make_sanitizer(tmp_path)
        net = small_network([TraceEvent(0, 0, 3, 4)], sanitizer=san)
        router = net.routers[0]
        port = router.input_ports[Direction.LOCAL]
        while not router._open_vcs:
            net.step()  # until the head wins VC allocation
        vc = next(vc for vc in port.vcs if vc.state is VcState.ACTIVE)
        vc.out_vc = 9  # corrupt the record: an out-of-range output VC
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "vc-owners"
        assert "out-of-range" in exc_info.value.detail

    def test_busy_vc_without_owner_is_caught(self, tmp_path):
        san = make_sanitizer(tmp_path)
        net = small_network([TraceEvent(0, 0, 3, 4)], sanitizer=san)
        net.run(2)  # the head sits in router 0's LOCAL port, claimed for it
        port = net.routers[0].input_ports[Direction.LOCAL]
        vc = next(vc for vc in port.vcs if vc.queue)
        assert vc.owner is vc.queue[0][0].packet
        vc.owner = None
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "vc-owners"
        assert "no owner" in exc_info.value.detail

    def test_claim_held_for_a_swept_drop_is_caught(self, tmp_path):
        san = make_sanitizer(tmp_path)
        net = small_network([TraceEvent(0, 0, 3, 4)], sanitizer=san)
        victim = Packet.create(1, 3, 4, 0)
        victim.dropped_reason = "dead_link"
        net.routers[1].input_ports[Direction.WEST].claim(2, victim)
        net._pending_drops.append(victim)
        san.observe(net, cycle=san.interval)  # the sweep has yet to run
        net._pending_drops.clear()
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "vc-owners"
        assert "router 1 WEST/vc2" in exc_info.value.detail

    def test_drained_network_holding_a_claim_is_caught(self, tmp_path):
        san = make_sanitizer(tmp_path)
        net = small_network([], sanitizer=san)
        net.routers[3].input_ports[Direction.NORTH].claim(0, Packet.create(0, 3, 4, 0))
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "vc-owners"
        assert "drained" in exc_info.value.detail

    def test_release_through_upstream_bst_only_is_caught(self, tmp_path, monkeypatch):
        """The mutant: a drop releases a downstream claim only through the
        upstream router's open worm (the VC record that is the paper's BST
        entry), so a victim worm that has already left
        its upstream router leaves its claim behind.  On the 8x8 X-Y mesh
        under aging-cliff (seed 0) the first such orphan is router 13's
        EAST vc 0, at cycle 1 665."""
        from repro import SyntheticPattern, generate_synthetic_trace
        from repro.utils.rng import make_rng

        monkeypatch.setattr(Network, "_flush_drops", _flush_drops_upstream_only)
        trace = generate_synthetic_trace(
            SyntheticPattern.UNIFORM, 64, 8, 4500, 0.02, 4,
            make_rng(0, "bench/uniform/0.02"),
        )
        noc = replace(INTELLINOC.noc, fault_scenario="aging-cliff")
        config = SimulationConfig(technique=replace(INTELLINOC, noc=noc), seed=0)
        net = Network(config, trace, sanitizer=make_sanitizer(
            tmp_path, interval=16, watchdog_cycles=20_000,
        ))
        with pytest.raises(InvariantViolation) as exc_info:
            net.run(2000)
        assert exc_info.value.check == "vc-owners"
        assert exc_info.value.cycle == 1680  # the first check after 1 665
        assert "router 13 EAST/vc0" in exc_info.value.detail

    def test_inbound_counter_drift_is_caught(self, tmp_path):
        san = make_sanitizer(tmp_path)
        net = small_network([], sanitizer=san)
        net.routers[1].inbound.flits += 1  # claims a flit no channel queues
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "occupancy-counters"
        assert "router 1" in exc_info.value.detail

    def test_busy_channel_set_drift_is_caught(self, tmp_path):
        san = make_sanitizer(tmp_path)
        net = small_network([TraceEvent(0, 0, 3, 4)], sanitizer=san)
        net._busy_channels.add(0)  # stale: channel 0 is empty
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "occupancy-counters"
        net._busy_channels.discard(0)
        while not net._busy_channels:
            net.step()  # until a flit is on a link
        net._busy_channels.clear()  # missing: that channel holds a flit
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "occupancy-counters"

    def test_open_vc_mask_drift_is_caught(self, tmp_path):
        san = make_sanitizer(tmp_path)
        net = small_network([TraceEvent(0, 0, 3, 4)], sanitizer=san)
        while not net.routers[0]._open_vcs:
            net.step()  # until the head wins VC allocation
        net.routers[0]._open_vcs = 0  # the router would read idle and gate
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "occupancy-counters"
        assert "open-VC mask" in exc_info.value.detail

    def test_occupied_vc_mask_drift_is_caught(self, tmp_path):
        san = make_sanitizer(tmp_path)
        net = small_network([TraceEvent(0, 0, 3, 4)], sanitizer=san)
        net.run(2)  # a flit sits in router 0's LOCAL port
        assert net.routers[0]._occupied_vcs
        net.routers[0]._occupied_vcs = 0  # the pipeline scan would miss it
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "occupancy-counters"

    @pytest.mark.parametrize("technique", [SECDED_BASELINE, INTELLINOC],
                             ids=["secded", "intellinoc"])
    def test_counters_hold_through_replays_kills_and_drop_sweeps(
        self, technique, tmp_path
    ):
        """Audited every cycle across every queue mutator: NACK replays
        (SECDED under a burst), a link kill, a router kill and the drop
        sweeps they trigger, and (IntelliNoC) the gated bypass."""
        from repro.faults.scenario import (
            FaultScenario, LinkFailure, RouterFailure, TransientBurst,
        )
        from repro.traffic.parsec import generate_parsec_trace

        noc = replace(technique.noc, width=4, height=4, routing="west_first")
        scenario = FaultScenario(name="audit", events=(
            TransientBurst(start=50, end=1000, multiplier=3000.0),
            LinkFailure(cycle=200, src_router=5, direction=int(Direction.EAST)),
            RouterFailure(cycle=450, router=10),
        ))
        san = make_sanitizer(tmp_path, interval=1, watchdog_cycles=50_000)
        net = Network(
            SimulationConfig(technique=replace(technique, noc=noc), seed=7),
            generate_parsec_trace("swa", 4, 4, 1200, noc.flits_per_packet, 7),
            scenario=scenario, sanitizer=san,
        )
        net.run(1500)  # raises InvariantViolation on any drift
        assert san.checks_run == 1500 and san.violations_seen == 0
        assert net.stats.flits_dropped > 0
        if technique is SECDED_BASELINE:
            assert net.stats.hop_retransmissions > 0
        else:
            assert net.stats.bypass_traversals > 0

    def test_flit_count_drift_is_caught(self, tmp_path):
        san = make_sanitizer(tmp_path)
        net = small_network([], sanitizer=san)
        net.routers[2]._flit_count += 1  # bookkeeping no longer matches buffers
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "flit-conservation"

    def test_source_ledger_leak_is_caught(self, tmp_path):
        san = make_sanitizer(tmp_path)
        net = small_network([], sanitizer=san)
        net.sources[0].flits_popped += 2  # flits sourced that never existed
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "flit-conservation"
        assert "leak of 2 flits" in exc_info.value.detail

    def test_negative_reservation_is_caught(self, tmp_path):
        san = make_sanitizer(tmp_path)
        net = small_network([], sanitizer=san)
        net.routers[0].input_ports[Direction.LOCAL].vcs[1].reserved = -1
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "credit-conservation"

    def test_gated_router_with_buffered_flit_is_caught(self, tmp_path):
        san = make_sanitizer(tmp_path)
        net = small_network([TraceEvent(0, 0, 3, 4)], sanitizer=san)
        net.run(2)  # inject a flit into router 0's LOCAL port
        router = net.routers[0]
        assert router._flit_count > 0
        router.gating.state = PowerState.GATED  # force an illegal gate
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "gated-buffers"

    def test_nan_qtable_is_caught(self, tmp_path):
        san = make_sanitizer(tmp_path)
        tech = replace(INTELLINOC, noc=replace(INTELLINOC.noc, width=2, height=2))
        config = SimulationConfig(technique=tech, seed=3, faults=NO_FAULTS)
        net = Network(config, Trace([]), sanitizer=san)
        agent = net.policy.agents[0]
        row = agent.qtable.q_values((0,) * 16)
        row[0] = np.nan
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=san.interval)
        assert exc_info.value.check == "qtable-finite"

    def test_violation_dumps_snapshot_named_after_check(self, tmp_path):
        san = make_sanitizer(tmp_path)
        net = small_network([], sanitizer=san)
        net.routers[0]._flit_count += 1
        with pytest.raises(InvariantViolation) as exc_info:
            san.observe(net, cycle=8)
        path = exc_info.value.snapshot_path
        assert path is not None and path.name == "flit-conservation-cycle8.json"


class TestConfiguration:
    def test_off_cycle_observe_is_a_noop(self, tmp_path):
        san = make_sanitizer(tmp_path, interval=4)
        net = small_network([], sanitizer=san)
        net.routers[0]._flit_count += 1  # corrupt, but never observed
        san.observe(net, cycle=3)  # not on the stride
        assert san.checks_run == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NocSanitizer(interval=0)
        with pytest.raises(ValueError):
            NocSanitizer(interval=100, watchdog_cycles=50)

    def test_from_env_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert NocSanitizer.from_env() is None
        net = small_network([])
        assert net.sanitizer is None

    def test_from_env_enables_and_configures(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_DIR", str(tmp_path / "snaps"))
        san = NocSanitizer.from_env()
        assert san is not None
        assert (san.interval, san.watchdog_cycles) == (
            DEFAULT_INTERVAL, DEFAULT_WATCHDOG_CYCLES
        )
        assert san.snapshot_dir == tmp_path / "snaps"
        net = small_network([])
        assert net.sanitizer is not None  # network picked it up from env


def test_loading_the_sanitizer_does_not_load_the_linter():
    """Every `REPRO_SANITIZE` worker imports the sanitizer; the linter is
    the CLI's alone."""
    probe = (
        "import sys, repro.analysis.sanitizer; "
        "print(*sorted(m for m in sys.modules if m.startswith('repro.analysis')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
    ).stdout
    assert out.split() == ["repro.analysis", "repro.analysis.sanitizer"]


_flush_drops = Network._flush_drops


def _flush_drops_upstream_only(self, cycle):
    """``Network._flush_drops`` under the release rule from before VCs named
    their owner (the mutant the ``vc-owners`` audit exists to catch): a
    victim's VC is released only when it buffers the victim's flits, holds
    its open worm, or is the downstream VC of an upstream open worm the
    victim holds.  A claim whose worm already left the upstream router is
    none of these, so it stays behind."""
    doomed = {id(p) for p in self._pending_drops}
    released = set()
    for router in self.routers:
        for _, _, vc in router._vc_slots:
            is_open = vc.state is VcState.ACTIVE
            if id(vc.owner) in doomed and (is_open or vc.queue):
                released.add(id(vc))
                if is_open and vc.route in router.downstream_ports:
                    down = router.downstream_ports[vc.route]
                    released.add(id(down.vcs[vc.out_vc]))
    orphans = [
        (vc, vc.owner)
        for router in self.routers
        for _, _, vc in router._vc_slots
        if id(vc.owner) in doomed and id(vc) not in released
    ]
    for vc, _ in orphans:
        vc.owner = None  # hidden from the sweep...
    _flush_drops(self, cycle)
    for vc, owner in orphans:
        vc.owner = owner  # ...and left claimed behind it
