"""Remaining Network surface: drain helper, repr, validation, wiring."""

import pytest

from repro.config import FaultConfig, SECDED_BASELINE
from repro.noc.routing import Direction
from repro.traffic.trace import TraceEvent
from tests.conftest import make_network

NO_FAULTS = FaultConfig(base_bit_error_rate=0.0)


class TestWiring:
    def test_mesh_channel_symmetry(self):
        net = make_network(events=[], faults=NO_FAULTS)
        assert len(net.channels) == 2 * 7 * 8 * 2
        for channel in net.channels:
            src = net.routers[channel.src]
            dst = net.routers[channel.dst]
            assert src.outgoing[channel.direction] is channel
            assert dst.incoming[channel.direction.opposite] is channel
            assert src.downstream_routers[channel.direction] is dst

    def test_every_router_has_congestion_block(self):
        net = make_network(events=[], faults=NO_FAULTS)
        assert all(r.congestion is not None for r in net.routers)

    def test_edge_routers_have_fewer_channels(self):
        net = make_network(events=[], faults=NO_FAULTS)
        corner = net.routers[0]
        center = net.routers[27]
        assert len(corner.outgoing) == 2
        assert len(center.outgoing) == 4
        assert Direction.WEST not in corner.outgoing


class TestRunControls:
    def test_negative_run_rejected(self):
        net = make_network(events=[], faults=NO_FAULTS)
        with pytest.raises(ValueError):
            net.run(-1)

    def test_drain_remaining_empties_network(self):
        net = make_network(events=[TraceEvent(0, 0, 63, 4)], faults=NO_FAULTS)
        net.run(5)  # mid-flight
        net.drain_remaining(max_cycles=5000)
        assert net._network_drained()
        assert net.stats.packets_completed == 1

    def test_repr_shows_progress(self):
        net = make_network(events=[TraceEvent(0, 0, 9, 4)], faults=NO_FAULTS)
        net.run_to_completion(2000)
        text = repr(net)
        assert "SECDED" in text
        assert "1/1" in text

    def test_run_to_completion_caps_at_max(self):
        # An event beyond the cap: run_to_completion returns at the cap.
        net = make_network(events=[TraceEvent(5000, 0, 9, 4)], faults=NO_FAULTS)
        cycles = net.run_to_completion(100)
        assert cycles == 100
        assert net.stats.packets_completed == 0


class TestEpochMachinery:
    def test_mode_cycles_accumulate_every_epoch(self):
        net = make_network(events=[], faults=NO_FAULTS)
        net.run(500)
        total = sum(net.stats.mode_cycles.values())
        assert total == 5 * 100 * 64  # stats epochs x routers

    def test_thermal_updates_on_epoch_boundary(self):
        net = make_network(
            events=[TraceEvent(i, 0, 7, 4) for i in range(90)], faults=NO_FAULTS
        )
        before = net.thermal.mean_temperature()
        net.run(400)
        after = net.thermal.mean_temperature()
        assert after > before  # heated by the burst


class TestHopRateMemo:
    def test_memoised_rates_never_go_stale(self):
        """The per-link (error rate, Eq. 3 probability) memo is dropped at
        every point its inputs move — thermal step, burst edge, thermal-
        attack tick — and keyed on relaxed timing, so each cycle it must
        equal a from-scratch computation for every channel."""
        from dataclasses import replace

        from repro.channels.mfac import ChannelFunction
        from repro.config import INTELLINOC, SimulationConfig
        from repro.faults.scenario import FaultScenario, ThermalAttack, TransientBurst
        from repro.noc.network import Network
        from repro.traffic.parsec import generate_parsec_trace

        noc = replace(INTELLINOC.noc, width=4, height=4)
        scenario = FaultScenario(name="memo", events=(
            TransientBurst(start=40, end=260, multiplier=500.0, routers=(1, 5, 6)),
            TransientBurst(start=150, end=330, multiplier=20.0),
            ThermalAttack(start=60, end=300, routers=(5, 9), delta_k=4.0,
                          stride=35, cap_k=400.0),
        ))
        net = Network(
            SimulationConfig(technique=replace(INTELLINOC, noc=noc), seed=7),
            generate_parsec_trace("swa", 4, 4, 400, noc.flits_per_packet, 7),
            scenario=scenario,
        )
        net.routers[2].apply_mode(4, 0)  # relaxed timing on one router
        seen = set()
        for _ in range(400):
            net.step()
            if net.cycle == 200:
                net.routers[6].apply_mode(4, net.cycle)  # mid-run mode switch
            for channel in net.channels:
                relaxed = (
                    net.routers[channel.src].relaxed_timing
                    or channel.function is ChannelFunction.RELAXED
                )
                rate = net._scenario.scaled_rate(
                    net.fault_model.bit_error_rate(
                        net.thermal.temperature(channel.src), relaxed_timing=relaxed
                    ),
                    channel.src,
                )
                assert net._hop_error_rates(channel) == (
                    rate, net.sampler.flit_fault_probability(rate)
                )
                seen.add(rate)
        assert len(seen) > 20  # the rates really moved under the memo

    @pytest.mark.parametrize("multi_bit_fraction", [0.0, 0.35], ids=["flips", "bursts"])
    def test_per_hop_draw_is_sample_bit_errors_draw_for_draw(self, multi_bit_fraction):
        """The network draws stage 1 of `ErrorSampler.sample_bit_errors`
        itself and calls `faulty_flit_errors` for a faulty flit: the same
        5 000 outcomes as the sampler's own two-stage call from an equally
        seeded stream, the same number of draws, the zero-rate shortcut
        (no draw) included."""
        from repro.channels.mfac import ChannelFunction
        from repro.config import INTELLINOC
        from repro.ecc.outcomes import ErrorSampler
        from repro.utils.rng import RngFactory

        faults = FaultConfig(
            base_bit_error_rate=2e-2, multi_bit_fraction=multi_bit_fraction
        )
        net = make_network(INTELLINOC, seed=5, faults=faults)
        reference = ErrorSampler(
            net.technique.noc.flit_bits,
            RngFactory(5).stream("faults"),
            multi_bit_fraction=multi_bit_fraction,
            burst_extra_bits_mean=faults.burst_extra_bits_mean,
        )
        hot, quiet, slow_router, slow_link = (net.channels[i] for i in (3, 40, 80, 120))
        assert len({c.src for c in (hot, quiet, slow_router, slow_link)}) == 4
        net._hop_rates[False][quiet.src] = (0.0, 0.0)  # a link that cannot fail
        # Relaxed timing, by router mode and by MFAC function alone: the
        # other half of the memo (seeded hot, or nothing would show).
        net.routers[slow_router.src].apply_mode(4, 0)
        slow_router.set_function(ChannelFunction.NORMAL)  # the mode alone
        slow_link.set_function(ChannelFunction.RELAXED)
        assert not net.routers[slow_link.src].relaxed_timing
        for channel, rate in ((slow_router, 5e-4), (slow_link, 2e-4)):
            net._hop_rates[True][channel.src] = (
                rate, net.sampler.flit_fault_probability(rate)
            )
            net._hop_rates[False][channel.src] = (0.0, 0.0)  # decoy: wrong key
        cast = [quiet, hot, slow_router, hot, slow_link, hot, hot]
        drawn, expected = [], []
        for i in range(5_000):
            channel = cast[i % 7]
            drawn.append(net._sample_channel_errors(channel))
            expected.append(reference.sample_bit_errors(*net._hop_error_rates(channel)))
        assert drawn == expected
        assert 20 < sum(1 for errors in drawn if errors) < 1_000
        if multi_bit_fraction:
            assert sum(1 for errors in drawn if errors >= 2) > 20
        assert net.sampler.rng.random() == reference.rng.random()  # streams in step

