"""Mean-time-to-failure estimation (Section 7.2, Fig. 16).

The paper computes FIT values with an architectural reliability framework
[23, 44] and feeds them into the permanent-fault model.  We estimate MTTF
directly from the aging trajectories: for each router, extrapolate how long
its observed stress-accumulation *rate* would take to push ``dVth`` past the
10% failure threshold, then combine routers as a series system (the NoC
fails when its first router fails; FIT rates add).
"""

from __future__ import annotations

import math

from repro.faults.aging import AgingModel


class MttfEstimator:
    """Extrapolates MTTF from accumulated aging stress."""

    def __init__(self, aging: AgingModel):
        self.aging = aging

    def router_time_to_failure_seconds(self, router: int) -> float:
        """Extrapolated seconds until *router* crosses the Vth threshold.

        Inverts ``dVth(t) = A_n * (r_n t)^p_n + A_h * (r_h t)^p_h`` for the
        observed per-second stress rates ``r``; solved numerically by
        bisection since the two power laws have different exponents.
        """
        state = self.aging.states[router]
        if state.total_seconds <= 0:
            return math.inf
        model = self.aging
        cfg = model.config
        threshold = cfg.vth_failure_fraction * cfg.nominal_vth
        rate_n = state.nbti_stress / state.total_seconds
        rate_h = state.hci_stress / state.total_seconds
        if rate_n == 0 and rate_h == 0:
            return math.inf

        def shift_at(t: float) -> float:
            total = 0.0
            if rate_n > 0:
                total += model.NBTI_PREFACTOR * (rate_n * t) ** model.NBTI_EXPONENT
            if rate_h > 0:
                total += model.HCI_PREFACTOR * (rate_h * t) ** model.HCI_EXPONENT
            return total

        lo, hi = 0.0, 1.0
        while shift_at(hi) < threshold:
            hi *= 2.0
            if hi > 1e18:  # ~30 billion years: effectively no wear
                return math.inf
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if mid == lo or mid == hi:
                break  # adjacent floats: no later step moves either end
            if shift_at(mid) < threshold:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    def system_mttf_seconds(self) -> float:
        """Series-system MTTF: failure rates of all routers add."""
        total_rate = 0.0
        for i in range(len(self.aging.states)):
            ttf = self.router_time_to_failure_seconds(i)
            if ttf <= 0:
                return 0.0
            if not math.isinf(ttf):
                total_rate += 1.0 / ttf
        return math.inf if total_rate == 0 else 1.0 / total_rate
