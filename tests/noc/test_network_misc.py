"""Remaining Network surface: repr, validation, wiring."""

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

    def test_stats_epoch_charges_what_the_full_formula_charges(self):
        """`_stats_epoch` computes a leakage figure only for a non-zero
        cycle count and walks the ports only of a router that holds
        something.  Over three epochs of a half-loaded mesh, the static
        energy, the occupancy sums and the epoch snapshot must be exactly
        what the formula that computes everything (both leakage figures
        and ten port sums per router) arrives at."""
        from dataclasses import replace

        import numpy as np

        from repro.config import INTELLINOC, SimulationConfig
        from repro.noc.network import Network
        from repro.traffic.trace import Trace

        noc = replace(INTELLINOC.noc, width=4, height=4)
        left = [node for node in range(16) if node % 4 < 2]  # the busy half
        events = [
            TraceEvent(cycle, src, left[(i + 3) % 8], 4)
            for cycle in range(0, 300, 3)
            for i, src in enumerate(left)
        ]
        config = SimulationConfig(
            technique=replace(INTELLINOC, noc=noc), seed=3, faults=NO_FAULTS
        )
        net = Network(config, Trace(events))
        per_cycle_pj = 1e-3 / config.power.clock_frequency_hz * 1e12
        closed: dict[int, tuple[int, int]] = {}
        snapshots = []
        seen = {"walked": 0, "skipped": 0, "only_on": 0, "only_off": 0}

        def recording_close(rid, real):
            def close_epoch(cycle):
                closed[rid] = real(cycle)
                return closed[rid]
            return close_epoch

        for rid, router in enumerate(net.routers):
            router.gating.close_epoch = recording_close(rid, router.gating.close_epoch)
        close_accounts = net.accountant.close_epoch

        def recording_snapshot(now):
            snapshots.append(close_accounts(now))
            return snapshots[-1]

        net.accountant.close_epoch = recording_snapshot
        stats_epoch = net._stats_epoch

        def checked_epoch(now):
            ports = net.topology.ports
            static_before = net.accountant.static_pj.copy()
            sums_before = [c.occupancy_samples.copy() for c in net.stats.routers]
            shares = [
                [
                    router.input_ports[p].total_occupancy()
                    / router.input_ports[p].total_capacity()
                    for p in ports
                ]
                for router in net.routers
            ]
            schemes = [router.ecc.scheme for router in net.routers]
            for router in net.routers:
                seen["skipped" if router.is_empty() else "walked"] += 1
            stats_epoch(now)
            epoch_static = np.zeros(len(net.routers))
            for rid in range(len(net.routers)):
                powered, gated = closed[rid]
                leak_on = net.power_model.router_leakage_mw(True, schemes[rid])
                leak_off = net.power_model.router_leakage_mw(False, schemes[rid])
                total = static_before[rid]
                if powered:
                    total += leak_on * (per_cycle_pj * powered)
                    epoch_static[rid] += leak_on * (per_cycle_pj * powered)
                if gated:
                    total += leak_off * (per_cycle_pj * gated)
                    epoch_static[rid] += leak_off * (per_cycle_pj * gated)
                seen["only_on"] += not gated
                seen["only_off"] += not powered
                assert net.accountant.static_pj[rid] == total
                sums = net.stats.routers[rid].occupancy_samples
                for p in ports:
                    assert sums[int(p)] == sums_before[rid][int(p)] + shares[rid][int(p)]
            seconds = config.stats_epoch / config.power.clock_frequency_hz
            assert np.array_equal(snapshots[-1].static_w, epoch_static * 1e-12 / seconds)

        net._stats_epoch = checked_epoch
        net.run(3 * config.stats_epoch)
        assert len(snapshots) == 3
        assert all(count >= 3 for count in seen.values()), seen


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
        """The network takes stage 1 of `ErrorSampler.sample_bit_errors`
        from `uniform()` itself and calls `faulty_flit_errors` for a
        faulty flit: the same 5 000 outcomes as the sampler's own two-stage
        call from an equally seeded stream, the same number of draws, the
        zero-rate shortcut (no draw) included — across many refills of the
        uniform block, with faulty flits handing the generator back
        mid-block."""
        from repro.channels.mfac import ChannelFunction
        from repro.config import INTELLINOC
        from repro.ecc.outcomes import UNIFORM_BLOCK, ErrorSampler
        from repro.utils.rng import RngFactory
        from tests.ecc.test_uniform_block import ScalarTwin

        faults = FaultConfig(
            base_bit_error_rate=2e-2, multi_bit_fraction=multi_bit_fraction
        )
        net = make_network(INTELLINOC, seed=5, faults=faults)
        # The definition, and the same draws written out scalar by scalar.
        reference, scalar = (
            sampler(
                net.technique.noc.flit_bits,
                RngFactory(5).stream("faults"),
                multi_bit_fraction,
                faults.burst_extra_bits_mean,
            )
            for sampler in (ErrorSampler, ScalarTwin)
        )
        hot, quiet, slow_router, slow_link, calm = (
            net.channels[i] for i in (3, 40, 80, 120, 160)
        )
        assert len({c.src for c in (hot, quiet, slow_router, slow_link, calm)}) == 5
        net._hop_rates[False][quiet.src] = (0.0, 0.0)  # a link that cannot fail
        # One that almost never does: a stretch of it reads whole blocks.
        net._hop_rates[False][calm.src] = (1e-7, net.sampler.flit_fault_probability(1e-7))
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
        drawn, expected, spelled_out = [], [], []
        clean_run = longest_clean_run = 0  # stage-1 draws between faults
        for i in range(5_000):
            channel = calm if 1_500 <= i < 2_500 else cast[i % 7]
            drawn.append(net._sample_channel_errors(channel))
            rate, p_fault = net._hop_error_rates(channel)
            expected.append(reference.sample_bit_errors(rate, p_fault))
            spelled_out.append(scalar.sample_bit_errors(rate, p_fault))
            if rate > 0.0:
                clean_run = 0 if drawn[-1] else clean_run + 1
                longest_clean_run = max(longest_clean_run, clean_run)
        assert drawn == expected == spelled_out
        faulty = sum(1 for errors in drawn if errors)
        assert 20 < faulty < 1_000
        if multi_bit_fraction:
            assert sum(1 for errors in drawn if errors >= 2) > 20
        # Faults fall mid-block (each hands the generator back and drops
        # the block), and the calm stretch reads three blocks and more to
        # their ends, refilling with no fault between; the hops after it
        # would show a stream that came out of those fills out of step.
        assert longest_clean_run > 3 * UNIFORM_BLOCK
        assert any(drawn[2_500:])
        # Streams in step.
        assert net.sampler.rng.random() == reference.rng.random() == scalar.rng.random()

