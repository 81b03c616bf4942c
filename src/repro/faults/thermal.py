"""Lumped-RC per-router thermal model — HotSpot substitute (Section 6.1).

Each router is one thermal node: its steady-state temperature is ambient
plus ``R_th * P`` for its recent power draw, it relaxes toward that target
with a first-order RC time constant, and it exchanges a fraction of its
excess heat with mesh neighbors (lateral coupling).  This reproduces the
property the control policy depends on: temperature rises with sustained
utilization/power and relaxes when the router is bypassed or gated.
"""

from __future__ import annotations

import math

import numpy as np

from typing import TYPE_CHECKING

from repro.config import FaultConfig, NocConfig

if TYPE_CHECKING:
    from repro.noc.topology import Topology


class ThermalModel:
    """Temperature state for every router in the fabric."""

    def __init__(
        self,
        noc: NocConfig,
        config: FaultConfig,
        topology: "Topology | None" = None,
    ):
        self.noc = noc
        self.config = config
        self.temperatures = np.full(
            noc.num_routers, config.ambient_temperature, dtype=float
        )
        # Highest temperature any node has reached since construction
        # (kelvin) — a telemetry observable, never read by the dynamics.
        self.peak_temperature_k = float(config.ambient_temperature)
        if topology is None:  # standalone construction: the classic mesh layout
            from repro.noc.topology import MeshTopology  # avoid import cycle

            topology = MeshTopology(noc.width, noc.height)
        self._neighbors: list[list[int]] = [
            topology.thermal_neighbors(i) for i in range(noc.num_routers)
        ]

    def temperature(self, router: int) -> float:
        """Current temperature of *router* in kelvin."""
        return float(self.temperatures[router])

    def step(self, router_power_w: np.ndarray, dt_seconds: float) -> None:
        """Advance all node temperatures by *dt_seconds*.

        *router_power_w* is the average power (W) each router drew over the
        interval.  The update is the exact solution of the RC node over dt,
        followed by lateral diffusion toward the neighborhood mean.
        """
        if router_power_w.shape != self.temperatures.shape:
            raise ValueError(
                f"expected {self.temperatures.shape} powers, got {router_power_w.shape}"
            )
        if dt_seconds <= 0:
            raise ValueError("dt must be positive")
        cfg = self.config
        target = cfg.ambient_temperature + cfg.thermal_resistance * router_power_w
        blend = -math.expm1(-dt_seconds / cfg.thermal_time_constant)
        self.temperatures += (target - self.temperatures) * blend

        if cfg.thermal_coupling > 0:
            coupled = self.temperatures.copy()
            for i, neigh in enumerate(self._neighbors):
                neighborhood = sum(self.temperatures[j] for j in neigh) / len(neigh)
                coupled[i] += cfg.thermal_coupling * blend * (
                    neighborhood - self.temperatures[i]
                )
            self.temperatures = coupled
        self.peak_temperature_k = max(
            self.peak_temperature_k, float(np.max(self.temperatures))
        )

    def hottest(self) -> tuple[int, float]:
        """(router id, temperature) of the hottest node."""
        idx = int(np.argmax(self.temperatures))
        return idx, float(self.temperatures[idx])

    def mean_temperature(self) -> float:
        return float(np.mean(self.temperatures))
