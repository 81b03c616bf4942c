"""Router-level unit tests: pipeline, allocation, ECC latency, modes."""

import pytest

from repro.config import (
    CPD,
    EB,
    EccScheme,
    INTELLINOC,
    PowerConfig,
    SECDED_BASELINE,
)
from repro.noc.flit import Packet
from repro.noc.power_gating import PowerState
from repro.noc.router import MODE_SCHEME, Router
from repro.noc.routing import Direction
from repro.noc.statistics import RouterEpochCounters
from repro.noc.topology import MeshTopology
from repro.noc.vc import VcState


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


class TestModeTable:
    def test_mode_to_scheme_mapping(self):
        assert MODE_SCHEME[0] is EccScheme.CRC
        assert MODE_SCHEME[1] is EccScheme.CRC
        assert MODE_SCHEME[2] is EccScheme.SECDED
        assert MODE_SCHEME[3] is EccScheme.DECTED
        assert MODE_SCHEME[4] is EccScheme.SECDED  # relaxed keeps SECDED

    def test_unknown_mode_rejected(self):
        router = bare_router(INTELLINOC)
        with pytest.raises(ValueError):
            router.apply_mode(7, 0)


class TestEccLatency:
    def test_crc_mode_is_free(self):
        router = bare_router(INTELLINOC)
        router.ecc.configure(EccScheme.CRC)
        assert router.ecc.hop_latency == 0

    def test_secded_costs_two_cycles(self):
        router = bare_router(SECDED_BASELINE)
        assert router.ecc.hop_latency == 2

    def test_dected_costs_three(self):
        router = bare_router(INTELLINOC)
        router.ecc.configure(EccScheme.DECTED)
        assert router.ecc.hop_latency == 3


class TestPerSchemeConstants:
    """What a flit hop reads of the ECC scheme is refreshed by
    `AdaptiveEccUnit.configure` alone."""

    @pytest.mark.parametrize(
        "scheme", [EccScheme.CRC, EccScheme.SECDED, EccScheme.DECTED]
    )
    def test_hop_energy_is_the_power_models(self, scheme):
        router = bare_router(INTELLINOC)
        router.ecc.configure(scheme)
        model = router.power_model
        assert router._hop_base_pj + router.ecc.codec_pj == model.hop_energy_pj(
            scheme, via_bypass=False
        )
        assert router._bypass_base_pj + router.ecc.codec_pj == model.hop_energy_pj(
            scheme, via_bypass=True
        )
        assert router.ecc.per_hop == scheme.per_hop
        assert router.ecc.codec_pj == router.ecc.codec_energy_pj()

    def test_apply_mode_refreshes_them(self):
        router = bare_router(INTELLINOC)
        for mode, scheme in MODE_SCHEME.items():
            router.apply_mode(mode, 0)
            assert router.ecc.per_hop == scheme.per_hop
            assert router.ecc.hop_latency == {"crc": 0, "secded": 2, "dected": 3}[
                scheme.value
            ]


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
        assert router.ecc.scheme is EccScheme.SECDED

    def test_mode4_sets_relaxed_timing(self):
        router = bare_router(INTELLINOC)
        router.apply_mode(4, 0)
        assert router.relaxed_timing
        assert router.ecc.scheme is EccScheme.SECDED
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
