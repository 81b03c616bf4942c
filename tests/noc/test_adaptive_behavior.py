"""Integration tests: adaptive policies reacting to runtime conditions."""

import numpy as np

from repro.config import CPD, EccScheme, FaultConfig, SECDED_BASELINE, SimulationConfig
from repro.noc.network import Network
from repro.traffic.parsec import generate_parsec_trace
from repro.traffic.trace import Trace, TraceEvent


def steady_events(rate_gap=4, count=400, srcs=range(8)):
    events = []
    for i in range(count):
        src = list(srcs)[i % len(list(srcs))]
        dst = (src + 19) % 64
        events.append(TraceEvent(i * rate_gap, src, dst, 4))
    return events


class TestCpdHeuristic:
    def test_cpd_escalates_under_heavy_errors(self):
        """With errors landing every epoch, the heuristic leaves CRC.

        The mode decision uses the *previous* epoch's error classes, so
        traffic must still be flowing when we inspect the modes.
        """
        faults = FaultConfig(base_bit_error_rate=2e-3, multi_bit_fraction=0.5)
        technique = CPD.with_rl(time_step=300)
        config = SimulationConfig(technique=technique, seed=3, faults=faults)
        events = steady_events(rate_gap=3, count=1400)  # ~4200 cycles of load
        net = Network(config, Trace(events))
        net.run(4000)
        schemes = {r.scheme for r in net.routers}
        assert schemes - {EccScheme.CRC}, "some router must escalate beyond CRC"

    def test_cpd_relaxes_to_crc_when_clean(self):
        faults = FaultConfig(base_bit_error_rate=0.0)
        technique = CPD.with_rl(time_step=300)
        config = SimulationConfig(technique=technique, seed=3, faults=faults)
        net = Network(config, Trace(steady_events()))
        net.run(2000)
        # After a few clean epochs every router runs CRC-only (mode 1).
        assert all(r.mode == 1 for r in net.routers)


class TestThermalCoupling:
    def test_busy_routers_run_hotter(self):
        config = SimulationConfig(technique=SECDED_BASELINE, seed=3)
        # Concentrated row-0 traffic.
        events = [TraceEvent(i, 0, 7, 4) for i in range(0, 2400, 3)]
        net = Network(config, Trace(events))
        net.run(2500)
        busy = net.thermal.temperature(3)  # on the 0 -> 7 path
        quiet = net.thermal.temperature(56)  # far corner
        assert busy > quiet + 1.0

    def test_higher_temperature_raises_error_rate(self):
        config = SimulationConfig(technique=SECDED_BASELINE, seed=3)
        net = Network(config, Trace([]))
        cool = net.fault_model.bit_error_rate(net.thermal.temperature(0))
        net.thermal.temperatures[:] = 360.0
        hot = net.fault_model.bit_error_rate(net.thermal.temperature(0))
        assert hot > cool * 5


class TestObservations:
    def test_observe_produces_physical_values(self):
        config = SimulationConfig(technique=CPD.with_rl(time_step=500), seed=3)
        trace = generate_parsec_trace("bod", 8, 8, 1500, 4, seed=3)
        net = Network(config, trace)
        net.run(1000)
        observations = net._observe(1000)
        assert len(observations) == 64
        for obs in observations:
            assert obs.epoch_power_w >= 0.0
            assert obs.temperature >= config.faults.ambient_temperature - 1.0
            assert obs.epoch_latency > 0.0
            assert obs.aging_factor >= 1.0
            assert np.all(obs.in_link_utilization >= 0.0)

    def test_busy_router_observed_busier(self):
        config = SimulationConfig(technique=CPD.with_rl(time_step=1000), seed=3)
        events = [TraceEvent(i, 0, 7, 4) for i in range(0, 900, 3)]
        net = Network(config, Trace(events))
        net.run(999)
        observations = net._observe(999)
        on_path = observations[3].out_link_utilization.sum()
        off_path = observations[56].out_link_utilization.sum()
        assert on_path > off_path
