"""Router-level unit tests: pipeline, allocation, ECC latency, modes."""

from dataclasses import replace

import pytest

from repro.channels.mfac import ChannelFunction
from repro.config import (
    CPD,
    EB,
    EccScheme,
    INTELLINOC,
    OPERATION_MODES,
    ControlPolicy,
    OperationMode,
    PowerConfig,
    SECDED_BASELINE,
    SimulationConfig,
)
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.power_gating import PowerState
from repro.noc.router import Router
from repro.noc.routing import Direction
from repro.noc.statistics import RouterEpochCounters
from repro.noc.topology import MeshTopology
from repro.noc.vc import VcState
from repro.power.model import PowerModel
from repro.telemetry import Telemetry
from repro.traffic.parsec import generate_parsec_trace
from repro.traffic.trace import Trace


def bare_router(technique=SECDED_BASELINE, rid=9):
    charges = []
    ejected = []
    router = Router(
        rid,
        technique,
        PowerConfig(),
        topology=MeshTopology(8, 8),
        counters=RouterEpochCounters(),
        charge=charges.append,
        on_eject=lambda f, c: ejected.append(f),
        on_drop=lambda packet, reason: None,
    )
    router._test_charges = charges
    router._test_ejected = ejected
    return router


def wired_router(technique):
    """Router 5 of a 4x4 network of *technique*, its channels attached."""
    noc = replace(technique.noc, width=4, height=4)
    config = SimulationConfig(technique=replace(technique, noc=noc), seed=1)
    return Network(config, Trace([])).routers[5]


#: Section 4, per mode id: (ECC scheme, MFAC function, relaxed, gated).
SECTION_4 = [
    (EccScheme.CRC, ChannelFunction.NORMAL, False, True),  # bypass
    (EccScheme.CRC, ChannelFunction.NORMAL, False, False),
    (EccScheme.SECDED, ChannelFunction.RETRANSMISSION, False, False),
    (EccScheme.DECTED, ChannelFunction.RETRANSMISSION, False, False),
    (EccScheme.SECDED, ChannelFunction.RELAXED, True, False),
]


class TestModeTable:
    @pytest.mark.parametrize("technique", [INTELLINOC, CPD], ids=lambda t: t.name)
    @pytest.mark.parametrize("mode", range(len(SECTION_4)))
    def test_apply_mode_follows_the_table(self, technique, mode, monkeypatch):
        """Section 4: record *m* is the paper's row, and after
        ``apply_mode(m)``, from any previous mode, the ECC scheme, relaxed
        timing, every outgoing MFAC's function and the gating request are
        the record's (CPD has no MFACs to set)."""
        scheme, function, relaxed, gated = SECTION_4[mode]
        assert len(OPERATION_MODES) == len(SECTION_4)
        record = OPERATION_MODES[mode]
        assert record == OperationMode(scheme, relaxed=relaxed, gated=gated)
        router = wired_router(technique)
        mfacs = [c for c in router.outgoing.values() if c.is_mfac]
        assert router.mfacs == tuple(mfacs)
        assert bool(mfacs) == technique.uses_mfac
        requests = []
        monkeypatch.setattr(router.gating, "request_gate",
                            lambda cycle, empty: requests.append("gate"))
        monkeypatch.setattr(router.gating, "request_power_on",
                            lambda cycle, idle: requests.append("power on"))
        for prev in range(len(OPERATION_MODES)):
            router.apply_mode(prev, 0)
            router.apply_mode(mode, 0)
            assert router.mode == mode
            assert router.scheme is record.scheme
            assert router.relaxed_timing == record.relaxed
            assert all(c.function is function for c in mfacs)
            assert requests[-1] == ("gate" if record.gated else "power on")

    def test_unknown_mode_rejected(self):
        router = bare_router(INTELLINOC)
        for mode in (-1, len(OPERATION_MODES), 7):
            with pytest.raises(ValueError):
                router.apply_mode(mode, 0)


def mode_of(scheme):
    """The first mode id whose record runs *scheme* ungated."""
    return next(
        m for m, record in enumerate(OPERATION_MODES)
        if record.scheme is scheme and not record.gated
    )


class TestEccLatency:
    def test_crc_mode_is_free(self):
        router = bare_router(INTELLINOC)
        router.apply_mode(mode_of(EccScheme.CRC), 0)
        assert router.hop_latency == 0

    def test_secded_costs_two_cycles(self):
        router = bare_router(SECDED_BASELINE)
        assert router.hop_latency == 2

    def test_dected_costs_three(self):
        router = bare_router(INTELLINOC)
        router.apply_mode(mode_of(EccScheme.DECTED), 0)
        assert router.hop_latency == 3


class TestPerSchemeConstants:
    """What a flit hop reads of the ECC scheme is the mode record's, and
    the hop energies are the power model's, refreshed by `apply_mode`."""

    @pytest.mark.parametrize(
        "scheme", [EccScheme.CRC, EccScheme.SECDED, EccScheme.DECTED]
    )
    def test_hop_energy_is_the_power_models(self, scheme):
        router = bare_router(INTELLINOC)
        router.apply_mode(mode_of(scheme), 0)
        model = router.power_model
        assert router.hop_pj == model.hop_energy_pj(scheme, via_bypass=False)
        assert router.bypass_pj == model.hop_energy_pj(scheme, via_bypass=True)
        assert router.per_hop == scheme.per_hop

    def test_apply_mode_refreshes_them(self):
        router = bare_router(INTELLINOC)
        model = router.power_model
        for prev in range(len(OPERATION_MODES)):
            for mode, record in enumerate(OPERATION_MODES):
                scheme = record.scheme
                router.apply_mode(prev, 0)
                router.apply_mode(mode, 0)
                assert router.scheme is scheme
                assert router.per_hop == scheme.per_hop
                assert router.hop_latency == {"crc": 0, "secded": 2, "dected": 3}[
                    scheme.value
                ]
                assert router.hop_pj == model.hop_energy_pj(scheme, via_bypass=False)
                assert router.bypass_pj == model.hop_energy_pj(scheme, via_bypass=True)


class TestDropBuffered:
    def test_keeps_flit_count_and_occupied_mask_in_step(self):
        router = bare_router(SECDED_BASELINE)
        port = router.input_ports[Direction.WEST]
        doomed, spared = Packet.create(0, 5, 2, 0), Packet.create(0, 5, 2, 0)
        for vci, packet in ((0, doomed), (1, spared)):
            port.claim(vci, packet)
            for flit in packet.make_flits():
                flit.vc = vci
                router.deliver(flit, Direction.WEST, 0)
        assert router._flit_count == 4
        assert router.drop_owned({id(doomed): doomed}) == 2
        assert router.drop_owned({id(doomed): doomed}) == 0
        assert router._flit_count == 2
        assert not port.vcs[0].queue and len(port.vcs[1].queue) == 2
        assert router._occupied_vcs == router._slot_bit[Direction.WEST] << 1
        # The doomed packet's VC is released; the spared one is untouched.
        assert port.vcs[0].owner is None and port.vcs[0].state is VcState.IDLE
        assert port.vcs[1].owner is spared and port.vcs[1].state is VcState.ROUTING


def deliver_head(router, direction, vc, src):
    """Deliver the head of a four-flit packet that ejects at ``router`` on
    input VC ``vc`` of port ``direction``; return the body and tail."""
    packet = Packet.create(src, router.id, 4, 0)
    head, *rest = packet.make_flits()
    router.input_ports[direction].claim(vc, packet)
    head.vc = vc
    router.deliver(head, direction, 0)
    return rest


def step_until(router, ejected, cycle=0):
    while len(router._test_ejected) < ejected:
        router.step(cycle, None)
        cycle += 1
    return cycle


class TestVcRecord:
    """An input VC's state, route and output VC are its worm's one record
    (the paper's BST entry)."""

    def test_va_opens_the_record(self):
        router = bare_router(SECDED_BASELINE)
        deliver_head(router, Direction.WEST, 1, 8)
        step_until(router, 1)
        vc = router.input_ports[Direction.WEST].vcs[1]
        assert (vc.state, vc.route, vc.out_vc) == (VcState.ACTIVE, Direction.LOCAL, 0)
        # The record stays open while the worm has no flit here.
        assert router._flit_count == 0 and not router.is_idle()

    def test_the_tail_closes_the_record(self):
        router = bare_router(SECDED_BASELINE)
        rest = deliver_head(router, Direction.WEST, 1, 8)
        cycle = step_until(router, 1)
        for flit in rest:
            flit.vc = 1
            router.deliver(flit, Direction.WEST, cycle)
        step_until(router, 4, cycle)
        vc = router.input_ports[Direction.WEST].vcs[1]
        assert (vc.state, vc.route, vc.out_vc, vc.owner) == (VcState.IDLE, None, None, None)
        assert router._open_vcs == 0 and router.is_idle()

    def test_open_vc_mask_counts_open_worms(self):
        router = bare_router(SECDED_BASELINE)
        deliver_head(router, Direction.WEST, 1, 8)
        deliver_head(router, Direction.NORTH, 0, 17)
        step_until(router, 2)
        assert router._open_vcs == (
            router._slot_bit[Direction.WEST] << 1 | router._slot_bit[Direction.NORTH]
        )
        assert bin(router._open_vcs).count("1") == 2


class TestPipelineDelays:
    def test_baseline_is_four_stage(self):
        router = bare_router(SECDED_BASELINE)
        assert router._head_delay == 2  # BW/RC + VA before SA

    def test_eb_is_three_stage(self):
        router = bare_router(EB)
        assert router._head_delay == 1  # no VA stage

    def test_eb_gets_subnetwork_grants(self):
        assert bare_router(EB)._grants_per_output == 2
        assert bare_router(SECDED_BASELINE)._grants_per_output == 1


class TestModeApplication:
    def test_initial_mode_is_one_for_adaptive(self):
        assert bare_router(INTELLINOC).mode == 1
        assert bare_router(CPD).mode == 1

    def test_static_technique_runs_secded(self):
        router = bare_router(SECDED_BASELINE)
        assert router.scheme is EccScheme.SECDED

    def test_static_controller_holds_the_start_mode(self, monkeypatch):
        """IntelliNoC's hardware under STATIC: every router starts and stays
        in ``rl.initial_mode`` (mode 1, CRC), its MFACs as storage buffers,
        and no control step runs or charges Q-table energy."""

        def no_rl_step(model):
            raise AssertionError("a control step charged RL energy")

        monkeypatch.setattr(PowerModel, "rl_step_energy_pj", no_rl_step)
        noc = replace(INTELLINOC.noc, width=4, height=4)
        technique = replace(INTELLINOC, noc=noc, policy=ControlPolicy.STATIC)
        trace = generate_parsec_trace("swa", 4, 4, 3000, noc.flits_per_packet, 7)
        tel = Telemetry()
        network = Network(SimulationConfig(technique=technique, seed=7), trace,
                          telemetry=tel)
        network.run_to_completion(50_000)
        stats = network.stats
        assert stats.packets_completed == stats.packets_injected > 0
        assert {router.mode for router in network.routers} == {1}
        assert {router.scheme for router in network.routers} == {EccScheme.CRC}
        functions = {c.function for router in network.routers
                     for c in router.outgoing.values() if c.is_mfac}
        assert functions == {ChannelFunction.NORMAL}
        assert {m for m, cycles in stats.mode_cycles.items() if cycles} == {1}
        assert tel.events_of("control") == tel.events_of("mode") == []

    def test_mode4_sets_relaxed_timing(self):
        router = bare_router(INTELLINOC)
        router.apply_mode(4, 0)
        assert router.relaxed_timing
        assert router.scheme is EccScheme.SECDED
        router.apply_mode(1, 0)
        assert not router.relaxed_timing

    def test_mode0_requests_gating(self):
        router = bare_router(INTELLINOC)
        router.apply_mode(0, 10)
        assert router.gating.state is PowerState.GATED  # empty -> immediate

    def test_empty_router_reports_empty_and_idle(self):
        router = bare_router()
        assert router.is_empty()
        assert router.is_idle()


class TestBypassOverload:
    def test_no_channels_not_overloaded(self):
        router = bare_router(INTELLINOC)
        assert not router.bypass_overloaded()
