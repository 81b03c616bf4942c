"""Transient (timing) fault model — VARIUS substitute (Section 6.1).

The paper feeds HotSpot temperatures into the VARIUS timing-error model to
obtain a per-bit error rate ``Re`` that *increases with temperature* and
*decreases with voltage margin*, then computes the flit fault probability
with Eq. 3 (here :meth:`repro.ecc.outcomes.ErrorSampler.flit_fault_probability`).
We implement that functional dependence directly with an Arrhenius-style
exponential, calibrated so the nominal operating point sits at the
configured base rate and the Fig. 17(b) sweep range (1e-10..1e-7) is
reachable by setting ``FaultConfig.base_bit_error_rate``.
"""

from __future__ import annotations

import math

from repro.config import FaultConfig


class TransientFaultModel:
    """Maps (temperature, voltage, mode) to a per-bit error rate."""

    def __init__(self, config: FaultConfig):
        self.config = config

    def bit_error_rate(
        self,
        temperature_k: float,
        supply_voltage: float | None = None,
        relaxed_timing: bool = False,
    ) -> float:
        """Per-bit timing-error probability ``Re`` for one link traversal.

        ``Re`` grows exponentially with temperature above the reference
        point and shrinks exponentially with voltage guardband; relaxed
        timing (Operation Mode 4 / MFAC relaxed buffers) multiplies the
        rate by ``relaxed_error_factor`` — "reduced to near zero" in the
        paper's terms.
        """
        if temperature_k <= 0:
            raise ValueError("temperature must be positive kelvin")
        cfg = self.config
        voltage = cfg.supply_voltage if supply_voltage is None else supply_voltage
        if voltage <= 0:
            raise ValueError("supply voltage must be positive")

        exponent = cfg.error_rate_temp_coeff * (
            temperature_k - cfg.reference_temperature
        )
        if exponent > 60.0:  # beyond any physical operating point
            return 0.5
        rate = cfg.base_bit_error_rate * math.exp(exponent)
        # Voltage margin term: each 10% droop costs ~10x in error rate,
        # the slope VARIUS reports near the timing wall.
        rate *= math.exp(-23.0 * (voltage - cfg.supply_voltage))
        if relaxed_timing:
            rate *= cfg.relaxed_error_factor
        return min(rate, 0.5)
