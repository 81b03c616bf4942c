"""Tests for the west-first adaptive routing extension."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FaultConfig, SECDED_BASELINE, SimulationConfig
from repro.noc.adaptive_routing import (
    select_output,
    west_first_candidates,
    xy_candidates,
)
from repro.noc.network import Network
from repro.noc.routing import Direction, hop_count
from repro.noc.topology import MeshTopology
from repro.traffic.trace import Trace, TraceEvent

WIDTH = 8
nodes = st.integers(0, 63)
NO_FAULTS = FaultConfig(base_bit_error_rate=0.0)


class TestWestFirstCandidates:
    def test_west_destinations_forced_west(self):
        assert west_first_candidates(9, 8, WIDTH) == [Direction.WEST]
        assert west_first_candidates(63, 0, WIDTH) == [Direction.WEST]

    def test_east_north_adaptive(self):
        cands = west_first_candidates(0, 9, WIDTH)
        assert set(cands) == {Direction.EAST, Direction.NORTH}

    def test_arrival_is_local(self):
        assert west_first_candidates(5, 5, WIDTH) == [Direction.LOCAL]

    @given(nodes, nodes)
    @settings(max_examples=100)
    def test_candidates_are_minimal_and_productive(self, src, dst):
        """Every candidate reduces the Manhattan distance by one."""
        if src == dst:
            return
        topo = MeshTopology(WIDTH, WIDTH)
        before = hop_count(src, dst, WIDTH)
        for direction in west_first_candidates(src, dst, WIDTH):
            neighbor = topo.neighbor(src, direction)
            assert neighbor is not None
            assert hop_count(neighbor, dst, WIDTH) == before - 1

    @given(nodes, nodes)
    @settings(max_examples=100)
    def test_no_turns_into_west(self, src, dst):
        """The turn-model invariant: WEST moves only at the start."""
        if src == dst:
            return
        topo = MeshTopology(WIDTH, WIDTH)
        current, moved_non_west = src, False
        for _ in range(hop_count(src, dst, WIDTH)):
            direction = west_first_candidates(current, dst, WIDTH)[0]
            if direction is Direction.WEST:
                assert not moved_non_west, "turn into WEST violates the model"
            else:
                moved_non_west = True
            current = topo.neighbor(current, direction)
        assert current == dst


class TestSelectOutput:
    def test_single_candidate_deterministic(self):
        out = select_output([Direction.EAST], lambda d: 0)
        assert out is Direction.EAST

    def test_prefers_more_free_slots(self):
        slots = {Direction.EAST: 2, Direction.NORTH: 7}
        out = select_output([Direction.EAST, Direction.NORTH], slots.__getitem__)
        assert out is Direction.NORTH

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_output([], lambda d: 0)

    def test_xy_candidates_single(self):
        assert len(xy_candidates(0, 63, WIDTH)) == 1


class TestAdaptiveNetworkIntegration:
    def run_adaptive(self, events):
        technique = replace(
            SECDED_BASELINE, noc=replace(SECDED_BASELINE.noc, routing="west_first")
        )
        config = SimulationConfig(technique=technique, seed=4, faults=NO_FAULTS)
        net = Network(config, Trace(list(events)))
        net.run_to_completion(40_000)
        return net

    def test_all_packets_delivered(self):
        events = [
            TraceEvent(i * 3, (i * 7) % 64, (i * 13 + 1) % 64, 4)
            for i in range(120)
            if (i * 7) % 64 != (i * 13 + 1) % 64
        ]
        net = self.run_adaptive(events)
        assert net.stats.packets_completed == net.stats.packets_injected

    def test_adaptive_spreads_congestion(self):
        """Two east-north flows: adaptive routing must not funnel all the
        traffic down one dimension-ordered path."""
        events = [TraceEvent(i, 0, 27, 4) for i in range(0, 600, 2)]
        adaptive = self.run_adaptive(events)
        config = SimulationConfig(technique=SECDED_BASELINE, seed=4, faults=NO_FAULTS)
        xy = Network(config, Trace(list(events)))
        xy.run_to_completion(40_000)
        assert adaptive.stats.packets_completed == xy.stats.packets_completed
        # The adaptive run touches strictly more distinct routers.
        adaptive_used = sum(
            1 for c in adaptive.stats.routers if sum(c.in_flits) > 0
        )
        xy_used = sum(1 for c in xy.stats.routers if sum(c.in_flits) > 0)
        assert adaptive_used >= xy_used
