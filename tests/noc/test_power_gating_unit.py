"""Unit tests for the power-gating controller state machine."""

from dataclasses import replace

import pytest

from repro.config import CP
from repro.noc.power_gating import PowerGatingController, PowerState


def controller(bypass=False, wakeup=8, idle=16):
    return PowerGatingController(
        replace(CP, wakeup_latency=wakeup, idle_gate_threshold=idle, uses_bypass=bypass)
    )


class TestIdleDrivenGating:
    def test_gates_after_threshold(self):
        c = controller()
        for cycle in range(16):
            c.observe_idle(True, cycle)
        assert c.state is PowerState.GATED
        assert c.gate_count == 1

    def test_activity_resets_counter(self):
        c = controller()
        for cycle in range(15):
            c.observe_idle(True, cycle)
        c.observe_idle(False, 15)
        for cycle in range(16, 30):
            c.observe_idle(True, cycle)
        assert c.state is PowerState.ON

    def test_wakeup_pays_latency(self):
        c = controller()
        for cycle in range(16):
            c.observe_idle(True, cycle)
        c.request_wakeup(100)
        assert c.state is PowerState.WAKING
        c.tick(104, True)
        assert c.state is PowerState.WAKING
        c.tick(108, True)
        assert c.state is PowerState.ON
        assert c.wake_count == 1

    def test_bypass_router_ignores_reactive_wakeups(self):
        c = controller(bypass=True)
        for cycle in range(16):
            c.observe_idle(True, cycle)
        c.request_wakeup(100)  # bypass covers traffic; no wake
        assert c.state is PowerState.GATED


class TestModeDrivenGating:
    def test_gate_immediate_when_empty(self):
        c = controller(bypass=True)
        c.request_gate(10, router_empty=True)
        assert c.state is PowerState.GATED

    def test_drain_first_when_occupied(self):
        c = controller(bypass=True)
        c.request_gate(10, router_empty=False)
        assert c.state is PowerState.DRAINING
        c.tick(20, router_empty=False)
        assert c.state is PowerState.DRAINING
        c.tick(25, router_empty=True)
        assert c.state is PowerState.GATED

    def test_power_on_from_bypass_is_instant(self):
        c = controller(bypass=True)
        c.request_gate(0, router_empty=True)
        c.request_power_on(50, router_idle=False)
        assert c.state is PowerState.ON

    def test_power_on_without_bypass_pays_wakeup(self):
        c = controller(bypass=False)
        c.request_gate(0, router_empty=True)
        c.request_power_on(50, router_idle=False)
        assert c.state is PowerState.WAKING

    def test_idle_bypass_router_stays_dark(self):
        """Idle-driven gating: the bypass covers the idle router, so a
        power-on request waits for traffic; without a bypass it wakes."""
        c = controller(bypass=True)
        c.request_gate(0, router_empty=True)
        c.request_power_on(50, router_idle=True)
        assert c.state is PowerState.GATED and c.wake_count == 0
        c = controller(bypass=False)
        c.request_gate(0, router_empty=True)
        c.request_power_on(50, router_idle=True)
        assert c.state is PowerState.WAKING

    def test_power_on_cancels_drain(self):
        c = controller(bypass=True)
        c.request_gate(0, router_empty=False)
        c.request_power_on(5, router_idle=False)
        assert c.state is PowerState.ON


class TestEpochAccounting:
    def test_fully_powered_epoch(self):
        c = controller()
        powered, gated = c.close_epoch(100)
        assert (powered, gated) == (100, 0)

    def test_fully_gated_epoch(self):
        c = controller(bypass=True)
        c.request_gate(0, router_empty=True)
        powered, gated = c.close_epoch(100)
        assert (powered, gated) == (0, 100)

    def test_partial_epoch(self):
        c = controller(bypass=True)
        c.close_epoch(0)
        c.request_gate(40, router_empty=True)
        powered, gated = c.close_epoch(100)
        assert powered == 40
        assert gated == 60

    def test_gate_wake_gate_within_epoch(self):
        c = controller(bypass=True)
        c.close_epoch(0)
        c.request_gate(10, router_empty=True)
        c.request_power_on(30, router_idle=False)
        c.request_gate(50, router_empty=True)
        powered, gated = c.close_epoch(100)
        assert gated == 20 + 50
        assert powered == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            controller(wakeup=-1)
        with pytest.raises(ValueError):
            controller(idle=0)
