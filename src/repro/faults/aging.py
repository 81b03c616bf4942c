"""Transistor aging model: NBTI + HCI threshold-voltage shift (Section 6.2).

Implements the paper's Eqs. 4-7:

* Eq. 4 (alpha-power law): threshold shift -> gate-delay degradation.
* Eq. 5 (NBTI): ``dVth_NBTI`` grows sub-linearly with stress time with an
  exponential temperature acceleration (the ``A`` factor).
* Eq. 6 (HCI): ``dVth_HCI = A_HCI * I^m * t_stress^n`` with
  ``t_stress = dg0 * f * alpha_SA * t_runtime`` — switching-activity-
  weighted runtime.
* Eq. 7: ``Aging = 1 + dVth / Vth0`` (kept > 1 so it can sit inside the
  log-space reward), permanent fault when the shift exceeds 10% of Vth0.

Stress only accrues while a router is powered; power-gated/bypassed epochs
relax stress, which is exactly the MTTF lever of Operation Mode 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import FaultConfig


@dataclass
class AgingState:
    """Accumulated wear of one router."""

    nbti_stress: float = 0.0  # temperature-weighted stress seconds
    hci_stress: float = 0.0  # activity-weighted stress seconds
    powered_seconds: float = 0.0
    total_seconds: float = 0.0
    failed: bool = False


class AgingModel:
    """NBTI + HCI aging for a set of routers."""

    # Model constants (device-dependent in the paper's references [37-40];
    # fixed here and calibrated so shifts are measurable on simulated
    # timescales — only ratios across techniques enter the evaluation).
    NBTI_PREFACTOR = 3.2e-3  # V per (weighted second)^n
    NBTI_EXPONENT = 0.20  # sub-linear time exponent (2n in Eq. 5)
    NBTI_TEMP_SCALE = 28.0  # K per e-fold of acceleration
    HCI_PREFACTOR = 5e-4  # V per (weighted second)^n
    HCI_EXPONENT = 0.5  # classic sqrt(t) HCI growth
    HCI_CURRENT_EXPONENT = 1.5  # m in Eq. 6 (I^m term)
    ALPHA_POWER = 1.3  # velocity-saturation alpha (Eq. 4)
    # Power-gated transistors still see residual bias/calendar wear (sleep
    # transistors leak, oxide relaxes only partially): gated epochs accrue
    # this fraction of the NBTI stress they would accrue powered-on at the
    # same temperature.  Bounds the MTTF benefit of gating to ~5x.
    GATED_NBTI_FRACTION = 0.35

    def __init__(self, config: FaultConfig, num_routers: int):
        if num_routers < 1:
            raise ValueError("need at least one router")
        self.config = config
        self.states = [AgingState() for _ in range(num_routers)]

    def accumulate(
        self,
        router: int,
        dt_seconds: float,
        temperature_k: float,
        switching_activity: float,
        powered: bool,
        drive_current: float = 1.0,
    ) -> None:
        """Add *dt_seconds* of operation for one router.

        *switching_activity* is the fraction of cycles with datapath
        activity (``alpha_SA`` in Eq. 6); *powered* is False for gated
        epochs, which accrue calendar time but no stress.
        """
        if dt_seconds < 0:
            raise ValueError("dt cannot be negative")
        if not 0.0 <= switching_activity <= 1.0:
            raise ValueError("switching activity is a fraction of cycles")
        state = self.states[router]
        state.total_seconds += dt_seconds
        accel = math.exp(
            (temperature_k - self.config.reference_temperature) / self.NBTI_TEMP_SCALE
        )
        if not powered:
            state.nbti_stress += self.GATED_NBTI_FRACTION * accel * dt_seconds
            return
        state.powered_seconds += dt_seconds
        state.nbti_stress += accel * dt_seconds
        state.hci_stress += (
            (drive_current**self.HCI_CURRENT_EXPONENT) * switching_activity * dt_seconds
        )
        if self.delta_vth(router) > self.config.vth_failure_fraction * self.config.nominal_vth:
            state.failed = True

    def delta_vth_nbti(self, router: int) -> float:
        """Eq. 5 threshold shift from NBTI, in volts."""
        stress = self.states[router].nbti_stress
        return self.NBTI_PREFACTOR * stress**self.NBTI_EXPONENT if stress > 0 else 0.0

    def delta_vth_hci(self, router: int) -> float:
        """Eq. 6 threshold shift from HCI, in volts."""
        stress = self.states[router].hci_stress
        return self.HCI_PREFACTOR * stress**self.HCI_EXPONENT if stress > 0 else 0.0

    def delta_vth(self, router: int) -> float:
        """Eq. 7 first line: NBTI and HCI shifts are independent and add."""
        return self.delta_vth_nbti(router) + self.delta_vth_hci(router)

    def aging_factor(self, router: int) -> float:
        """Eq. 7: ``Aging = 1 + dVth/Vth0`` (always > 1, reward-safe)."""
        return 1.0 + self.delta_vth(router) / self.config.nominal_vth

    def gate_delay_factor(self, router: int) -> float:
        """Eq. 4 alpha-power law: relative gate delay vs. a fresh device."""
        cfg = self.config
        vdd = cfg.supply_voltage
        fresh = vdd / (vdd - cfg.nominal_vth) ** self.ALPHA_POWER
        aged_vth = cfg.nominal_vth + self.delta_vth(router)
        if aged_vth >= vdd:
            return math.inf
        aged = vdd / (vdd - aged_vth) ** self.ALPHA_POWER
        return aged / fresh

    def has_failed(self, router: int) -> bool:
        """Permanent fault: shift beyond 10% of nominal Vth (Section 6.2)."""
        return self.states[router].failed

    def max_aging(self) -> float:
        return max(self.aging_factor(i) for i in range(len(self.states)))

    def max_delta_vth(self) -> float:
        """Largest accumulated threshold shift across routers, in volts."""
        return max(self.delta_vth(i) for i in range(len(self.states)))

    def mean_aging(self) -> float:
        return sum(self.aging_factor(i) for i in range(len(self.states))) / len(
            self.states
        )
