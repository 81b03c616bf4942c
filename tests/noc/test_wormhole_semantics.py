"""Fine-grained wormhole protocol semantics.

These tests pin the pipeline/flow-control behaviors the coarser
integration tests only exercise implicitly: per-hop cycle counts,
credit-based backpressure, VC interleaving, and in-order per-packet flit
motion through a single router chain.
"""

import pytest

from repro.config import FaultConfig, SECDED_BASELINE, SimulationConfig
from repro.noc.network import Network
from repro.noc.vc import VcState
from repro.traffic.trace import Trace, TraceEvent

NO_FAULTS = FaultConfig(base_bit_error_rate=0.0)


def network(events):
    config = SimulationConfig(technique=SECDED_BASELINE, seed=8, faults=NO_FAULTS)
    return Network(config, Trace(list(events)))


class TestPerHopTiming:
    def test_single_hop_latency_budget(self):
        """0 -> 1: injection + 4-stage pipeline + SECDED (2cy) + link + eject.

        The four flits pipeline behind the head, so total latency for the
        tail is bounded by head latency + 3 serialization cycles.
        """
        net = network([TraceEvent(0, 0, 1, 4)])
        net.run_to_completion(1000)
        latency = net.stats.average_latency
        # Head: >= 2 routers' worth of pipeline + ECC-delayed link.
        assert 8 <= latency <= 30

    def test_each_extra_hop_costs_constant_cycles(self):
        lat = []
        for dst in (1, 2, 3, 4):
            net = network([TraceEvent(0, 0, dst, 4)])
            net.run_to_completion(1000)
            lat.append(net.stats.average_latency)
        deltas = [b - a for a, b in zip(lat, lat[1:])]
        # Constant per-hop increment (pipelined wormhole).
        assert max(deltas) - min(deltas) <= 1.0
        assert all(3 <= d <= 9 for d in deltas)


class TestBackpressure:
    def test_blocked_destination_backpressures_source(self):
        """Ejection drains 1 flit/cycle; 8 simultaneous senders to one
        node must slow down but never overflow a buffer (push would raise)."""
        events = [TraceEvent(0, src, 27, 4) for src in range(16, 24)]
        net = network(events)
        net.run_to_completion(10_000)
        assert net.stats.packets_completed == 8

    def test_vc_capacity_never_exceeded(self):
        events = [TraceEvent(i % 3, src, 27, 4) for i, src in enumerate(range(8))
                  if src != 27]
        net = network(events)
        for _ in range(400):
            net.step()
            for router in net.routers:
                for port in router.input_ports.values():
                    for vc in port.vcs:
                        assert vc.occupancy <= vc.depth


class TestWormholeIntegrity:
    def test_vc_state_returns_to_idle_after_tail(self):
        net = network([TraceEvent(0, 0, 2, 4)])
        net.run_to_completion(1000)
        for router in net.routers:
            for port in router.input_ports.values():
                for vc in port.vcs:
                    assert vc.owner is None
                    assert vc.state is VcState.IDLE
                    assert vc.reserved == 0
            assert router._open_vcs == 0

    def test_interleaved_packets_keep_flit_order(self):
        """Two packets sharing a link on different VCs both arrive whole
        and uncorrupted (per-VC FIFO held through SA interleaving)."""
        events = [TraceEvent(0, 0, 7, 4), TraceEvent(1, 8, 7, 4),
                  TraceEvent(2, 16, 7, 4)]
        net = network(events)
        net.run_to_completion(4000)
        assert net.stats.packets_completed == 3
        assert net.stats.corrupted_packets_delivered == 0

    def test_flit_conservation_mid_flight(self):
        """At any cycle: injected = in-sources + in-routers + in-channels
        + delivered (counting flits)."""
        events = [TraceEvent(i, i % 8, 56 + (i % 8), 4) for i in range(20)]
        net = network(events)
        total_flits = 20 * 4
        ejected = 0
        for _ in range(600):
            net.step()
        in_routers = sum(r._flit_count for r in net.routers)
        in_channels = sum(len(c.queue) for c in net.channels)
        in_sources = sum(
            s.pending_packets * 4 - (4 - len(s._current_flits) if s._current_flits else 0)
            for s in net.sources
        )
        completed_flits = net.stats.packets_completed * 4
        # After 600 cycles everything has drained into "completed".
        assert in_routers == in_channels == 0
        assert completed_flits == total_flits
