"""Laws for the power-state decisions a router owns (DESIGN.md §5).

A run of IntelliNoC's untrained agents at ε 1 visits every operation mode.
Over it: the bypass watchdog re-powers a router in its mode and moves only
a mode-0 router (to ``BYPASS_EXIT_MODE``); mode-0 admission leaves no
router in a gated row the bypass cannot carry; and each `rl` event's
`executed` mode differs from the chosen one exactly where the router ran
something else.  Every decision is counted here from the network's own
state, not from the code under test.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.config import BYPASS_EXIT_MODE, INTELLINOC, OPERATION_MODES, SimulationConfig
from repro.noc.network import Network
from repro.noc.power_gating import PowerState
from repro.noc.router import BYPASS_LOAD_LIMIT
from repro.telemetry import Telemetry
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.traffic.trace import Trace
from repro.utils.rng import make_rng

TIME_STEP = 100
CYCLES = 2000


def explored_mesh(period: int, burst: int, telemetry: Telemetry | None = None) -> Network:
    """A 4x4 IntelliNoC mesh at ε 1 under uniform bursts: 0.3 pkt/node/cycle
    for the first *burst* cycles of every *period*, silence otherwise, so
    routers gate on idleness in whatever mode they run and the next burst
    overloads their bypass."""
    noc = replace(INTELLINOC.noc, width=4, height=4)
    technique = replace(INTELLINOC, noc=noc).with_rl(epsilon=1.0, time_step=TIME_STEP)
    full = generate_synthetic_trace(
        SyntheticPattern.UNIFORM,
        noc.num_nodes,
        noc.width,
        CYCLES,
        0.3,
        noc.flits_per_packet,
        make_rng(5, "tests/noc/power-state-laws"),
    )
    trace = Trace([e for e in full.events if e.cycle % period < burst])
    return Network(SimulationConfig(technique=technique, seed=5), trace, telemetry=telemetry)


class TestWatchdogKeepsTheMode:
    def test_every_firing_keeps_a_non_gated_row_and_moves_mode_0(self):
        net = explored_mesh(period=150, burst=20)
        fired: list[tuple] = []
        for router in net.routers:

            def visit(cycle, sources, r=router, step=router.bypass_step):
                verdict = step(cycle, sources)
                if verdict is None:
                    fired.append((r, r.mode))
                return verdict

            router.bypass_step = visit
        by_mode: Counter = Counter()
        for _ in range(CYCLES):
            fired.clear()
            control = (net.cycle + 1) % TIME_STEP == 0  # the step re-decides
            net.step()
            if control:
                continue
            for router, before in fired:
                by_mode[before] += 1
                expected = BYPASS_EXIT_MODE if OPERATION_MODES[before].gated else before
                assert router.mode == expected, (router.id, before, router.mode)
        assert set(by_mode) == set(range(len(OPERATION_MODES))), by_mode


class TestBypassAdmission:
    @pytest.mark.parametrize("period, burst", [(150, 20), (300, 150)])
    def test_no_gated_row_beyond_what_the_bypass_carries(self, period, burst):
        net = explored_mesh(period, burst)
        refusals = 0
        seen: dict[int, tuple] = {}
        for router in net.routers:

            def apply(mode, cycle, r=router, original=router.apply_mode):
                # What admission reads when the mode is applied: the
                # window's counters, and channel capacities as the routers
                # re-moded before this one in the same step left them.
                seen[r.id] = (
                    mode,
                    sum(r.counters.in_flits) / TIME_STEP,
                    max(c.occupancy - max(2, c.capacity // 2) for c in r.incoming.values()),
                    r._flit_count - r.noc.total_router_buffer_flits,
                )
                return original(mode, cycle)

            router.apply_mode = apply
        control_step = net._control_step

        def control(now):
            nonlocal refusals
            seen.clear()
            control_step(now)
            for router in net.routers:
                mode, rate, backlog, overflow = seen[router.id]
                if OPERATION_MODES[router.mode].gated:
                    assert rate <= BYPASS_LOAD_LIMIT and backlog < 0 and overflow <= 0
                elif OPERATION_MODES[mode].gated:
                    refusals += 1
                    assert rate > BYPASS_LOAD_LIMIT or backlog >= 0 or overflow > 0

        net._control_step = control
        net.run(CYCLES)
        assert refusals > 0


class TestRlEventExecutedMode:
    def test_chosen_differs_from_executed_exactly_where_overridden_or_masked(self):
        tel = Telemetry(trace_stride=1)
        net = explored_mesh(period=150, burst=20, telemetry=tel)
        applied: dict[tuple[int, int], tuple[int, int]] = {}
        for router in net.routers:

            def apply(mode, cycle, rid=router.id, original=router.apply_mode):
                ran = original(mode, cycle)
                applied[cycle, rid] = (mode, ran)
                return ran

            router.apply_mode = apply
        overridden, masked = set(), set()
        for _ in range(CYCLES):
            net.step()
            if net.cycle % TIME_STEP:
                continue
            for router in net.routers:
                mode, ran = applied[net.cycle, router.id]
                if ran != mode:
                    overridden.add((net.cycle, router.id))
                gated = router.gating.state is PowerState.GATED
                if gated and not OPERATION_MODES[ran].gated:
                    masked.add((net.cycle, router.id))
        events = tel.events_of("rl")
        assert len(events) == (CYCLES // TIME_STEP) * len(net.routers)
        mismatched = {(e["cycle"], e["router"]) for e in events if e["mode"] != e["executed"]}
        # A refused mode 0 whose mode-1 fallback leaves an idle router dark
        # is both, and ran the mode it chose.
        assert mismatched == overridden ^ masked
        assert overridden - masked and masked - overridden
