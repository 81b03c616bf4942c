"""Run-time energy bookkeeping.

The accountant accumulates, per router:

* dynamic energy (pJ) from datapath events,
* static energy (pJ) integrated from per-cycle leakage,

and exposes per-epoch snapshots (for the thermal model and the RL reward)
plus whole-run totals (for Figs. 11-13).

Dynamic energy is charged once or more per flit hop, so it accumulates in
plain Python floats (the same IEEE-754 double additions a float64 array
element performs, without the array-scalar round trip); ``dynamic_pj``
and the epoch snapshot hand it out as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import PowerConfig


@dataclass(frozen=True)
class EpochPower:
    """Average per-router power over one accounting epoch."""

    dynamic_w: np.ndarray  # watts per router
    static_w: np.ndarray  # watts per router
    cycles: int

    @property
    def total_w(self) -> np.ndarray:
        return self.dynamic_w + self.static_w


class EnergyAccountant:
    """Per-router dynamic/static energy accumulators."""

    def __init__(self, num_routers: int, power: PowerConfig):
        if num_routers < 1:
            raise ValueError("need at least one router")
        self.num_routers = num_routers
        self.power = power
        self._dynamic_pj = [0.0] * num_routers
        self.static_pj = np.zeros(num_routers)
        self._epoch_dynamic_pj = [0.0] * num_routers
        self._epoch_static_pj = np.zeros(num_routers)
        self._epoch_start_cycle = 0

    @property
    def dynamic_pj(self) -> np.ndarray:
        """Whole-run dynamic energy per router (a fresh array per read)."""
        return np.array(self._dynamic_pj)

    def add_dynamic(self, router: int, energy_pj: float) -> None:
        """Charge *energy_pj* of switching energy to *router*."""
        self._dynamic_pj[router] += energy_pj
        self._epoch_dynamic_pj[router] += energy_pj

    def add_static_cycle(self, router: int, leak_mw: float) -> None:
        """Charge one cycle of *leak_mw* leakage to *router*."""
        pj = leak_mw * 1e-3 / self.power.clock_frequency_hz * 1e12
        self.static_pj[router] += pj
        self._epoch_static_pj[router] += pj

    def add_static(self, router: int, leak_mw: float, cycles: int) -> None:
        """Charge *cycles* cycles of *leak_mw* leakage to one router."""
        pj = leak_mw * (1e-3 / self.power.clock_frequency_hz * 1e12 * cycles)
        self.static_pj[router] += pj
        self._epoch_static_pj[router] += pj

    def add_static_cycles_bulk(self, leak_mw: np.ndarray, cycles: int) -> None:
        """Charge *cycles* cycles of per-router leakage in one call.

        The hot path uses this once per stats epoch instead of per cycle.
        """
        if leak_mw.shape != (self.num_routers,):
            raise ValueError("leakage vector has wrong shape")
        pj = leak_mw * (1e-3 / self.power.clock_frequency_hz * 1e12 * cycles)
        self.static_pj += pj
        self._epoch_static_pj += pj

    def close_epoch(self, current_cycle: int) -> EpochPower:
        """Snapshot and reset the per-epoch accumulators."""
        cycles = current_cycle - self._epoch_start_cycle
        if cycles <= 0:
            raise ValueError("epoch must span at least one cycle")
        seconds = cycles / self.power.clock_frequency_hz
        snapshot = EpochPower(
            dynamic_w=np.array(self._epoch_dynamic_pj) * 1e-12 / seconds,
            static_w=self._epoch_static_pj * 1e-12 / seconds,
            cycles=cycles,
        )
        self._epoch_dynamic_pj = [0.0] * self.num_routers
        self._epoch_static_pj = np.zeros(self.num_routers)
        self._epoch_start_cycle = current_cycle
        return snapshot

    # --- whole-run summaries ------------------------------------------------

    def total_dynamic_pj(self) -> float:
        return float(np.sum(self.dynamic_pj))

    def total_static_pj(self) -> float:
        return float(np.sum(self.static_pj))

    def total_pj(self) -> float:
        return self.total_dynamic_pj() + self.total_static_pj()

    def average_power_w(self, elapsed_cycles: int) -> tuple[float, float]:
        """(static watts, dynamic watts) averaged over the whole run."""
        if elapsed_cycles <= 0:
            raise ValueError("run must span at least one cycle")
        seconds = elapsed_cycles / self.power.clock_frequency_hz
        return (
            self.total_static_pj() * 1e-12 / seconds,
            self.total_dynamic_pj() * 1e-12 / seconds,
        )
