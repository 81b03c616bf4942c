"""Router power-gating controller (Sections 3.3 and 4).

Two gating styles share the controller:

* **idle-driven** (CP/CPD): gate after ``idle_gate_threshold`` quiet
  cycles; any arriving/injecting traffic triggers a wakeup that costs
  ``wakeup_latency`` cycles during which nothing moves through the router.
* **mode-driven** (IntelliNoC): the RL agent requests mode 0; the router
  drains its internal buffers, gates, and keeps forwarding through the
  stress-relaxing bypass — no wakeup on arrival, flits use the MFACs.

The controller also keeps per-epoch powered/gated cycle accounting for the
leakage model and the aging model.
"""

from __future__ import annotations

import enum


class PowerState(enum.Enum):
    ON = "on"
    DRAINING = "draining"  # mode-0 requested, emptying router buffers
    GATED = "gated"
    WAKING = "waking"


# The members, bound once: ``PowerState.GATED`` inside a function is a
# global load plus a lookup through ``EnumType`` (about 100 ns on CPython
# 3.11, against 12 ns for a module-level name), and the cycle loop tests a
# state several times per flit.  Functions of the simulator's packages use
# these names (tests/perf/test_hot_path_names.py holds them to it).
POWER_ON = PowerState.ON
POWER_DRAINING = PowerState.DRAINING
POWER_GATED = PowerState.GATED
POWER_WAKING = PowerState.WAKING


class PowerGatingController:
    """Gating state machine of one router."""

    def __init__(self, wakeup_latency: int, idle_threshold: int, bypass: bool):
        if wakeup_latency < 0 or idle_threshold < 1:
            raise ValueError("bad gating parameters")
        self.wakeup_latency = wakeup_latency
        self.idle_threshold = idle_threshold
        self.bypass = bypass
        self.state = POWER_ON
        self._wake_ready_cycle = 0
        self._idle_cycles = 0
        self._gated_since = 0
        self._gated_cycles_in_epoch = 0
        self._epoch_start = 0
        self.gate_count = 0
        self.wake_count = 0

    @property
    def powered(self) -> bool:
        state = self.state
        return state is POWER_ON or state is POWER_DRAINING

    # --- idle-driven gating (CP/CPD) -----------------------------------------

    def observe_idle(self, idle: bool, cycle: int) -> None:
        """Feed the idle detector one cycle's observation (only meaningful
        for idle-driven gating; mode-driven routers ignore idleness)."""
        if self.state is not POWER_ON:
            return
        self._idle_cycles = self._idle_cycles + 1 if idle else 0
        if self._idle_cycles >= self.idle_threshold:
            self._gate(cycle)

    def request_wakeup(self, cycle: int) -> None:
        """Traffic arrived at a gated, bypass-less router."""
        if self.state is POWER_GATED and not self.bypass:
            self.state = POWER_WAKING
            self._accumulate_gated(cycle)
            self._wake_ready_cycle = cycle + self.wakeup_latency
            self.wake_count += 1

    # --- mode-driven gating (IntelliNoC) --------------------------------------

    def request_gate(self, cycle: int, router_empty: bool) -> None:
        """Operation mode 0 selected: gate, draining first if needed."""
        state = self.state
        if state is POWER_GATED or state is POWER_DRAINING:
            return
        if router_empty:
            self._gate(cycle)
        else:
            self.state = POWER_DRAINING

    def request_power_on(self, cycle: int) -> None:
        """A non-zero operation mode selected while gated/draining.

        Leaving mode 0 is proactive (decided a time step ahead), so the
        bypass-style exit does not pay the reactive wakeup penalty.
        """
        if self.state is POWER_GATED:
            self._accumulate_gated(cycle)
            if self.bypass:
                self.state = POWER_ON
                self.wake_count += 1
            else:
                self.state = POWER_WAKING
                self._wake_ready_cycle = cycle + self.wakeup_latency
                self.wake_count += 1
        elif self.state is POWER_DRAINING:
            self.state = POWER_ON

    # --- per-cycle/epoch upkeep ------------------------------------------------

    def tick(self, cycle: int, router_empty: bool) -> None:
        """Advance timers: finish wakeups and complete pending drains."""
        if self.state is POWER_WAKING and cycle >= self._wake_ready_cycle:
            self.state = POWER_ON
            self._idle_cycles = 0
        elif self.state is POWER_DRAINING and router_empty:
            self._gate(cycle)

    def _gate(self, cycle: int) -> None:
        self.state = POWER_GATED
        self._gated_since = cycle
        self._idle_cycles = 0
        self.gate_count += 1

    def _accumulate_gated(self, cycle: int) -> None:
        self._gated_cycles_in_epoch += cycle - max(self._gated_since, self._epoch_start)

    def close_epoch(self, cycle: int) -> tuple[int, int]:
        """(powered cycles, gated cycles) since the previous epoch close."""
        span = cycle - self._epoch_start
        gated = self._gated_cycles_in_epoch
        if self.state is POWER_GATED:
            gated += cycle - max(self._gated_since, self._epoch_start)
        gated = min(gated, span)
        self._gated_cycles_in_epoch = 0
        self._epoch_start = cycle
        return span - gated, gated
