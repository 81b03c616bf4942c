"""Load-latency characterization — the standard NoC methodology.

Sweeps the injection rate of a synthetic pattern, measures average packet
latency per operating point, and locates the saturation throughput (the
load at which latency exceeds a multiple of the zero-load latency).  Not a
paper figure, but the tool any NoC study starts with; the synthetic-traffic
example and tests build on it.

Operating points are independent simulation cells, so they run through
the campaign engine: ``jobs > 1`` measures points in parallel and a
result store means the bisection in :meth:`saturation_rate` never re-runs
an operating point it has already measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import FaultConfig, TechniqueConfig
from repro.exec.engine import EngineOptions
from repro.exec.spec import CellSpec, synthetic_cell
from repro.metrics.summary import RunMetrics
from repro.traffic.patterns import SyntheticPattern


@dataclass(frozen=True)
class LoadPoint:
    """One operating point of a load-latency curve."""

    injection_rate: float  # packets/node/cycle offered
    avg_latency: float  # cycles (inf when the network did not keep up)
    throughput: float  # packets/node/cycle accepted
    completed_fraction: float

    @property
    def saturated(self) -> bool:
        return self.completed_fraction < 0.95


@dataclass
class LoadLatencySweep(EngineOptions):
    """Drives one technique through an injection-rate sweep."""

    technique: TechniqueConfig
    pattern: SyntheticPattern = SyntheticPattern.UNIFORM
    duration: int = 3000
    seed: int = 1
    packet_size: int = 4
    hotspots: tuple[int, ...] = (0, 7, 56, 63)
    faults: FaultConfig = field(
        default_factory=lambda: FaultConfig(base_bit_error_rate=1e-7)
    )
    drain_budget: int = 10_000

    def spec_for(self, injection_rate: float) -> CellSpec:
        return synthetic_cell(
            technique=self.technique,
            pattern=self.pattern.value,
            duration=self.duration,
            injection_rate=injection_rate,
            packet_size=self.packet_size,
            seed=self.seed,
            faults=self.faults,
            hotspots=self.hotspots,
            max_cycles=self.duration + self.drain_budget,
        )

    def _point(
        self, injection_rate: float, metrics: RunMetrics | None
    ) -> LoadPoint:
        if metrics is None:
            # A quarantined/skipped point reads as fully saturated: infinite
            # latency, nothing delivered — conservative for bisection.
            return LoadPoint(injection_rate, float("inf"), 0.0, 0.0)
        noc = self.technique.noc
        completed = metrics.packets_completed
        return LoadPoint(
            injection_rate=injection_rate,
            avg_latency=(
                metrics.latency.mean if metrics.latency.count else float("inf")
            ),
            throughput=completed / (metrics.execution_cycles * noc.num_nodes),
            completed_fraction=completed / max(1, metrics.packets_injected),
        )

    def measure(self, injection_rate: float) -> LoadPoint:
        """Run one operating point (a cache hit if already measured)."""
        metrics = self.run_specs([self.spec_for(injection_rate)]).metrics[0]
        return self._point(injection_rate, metrics)

    def sweep(self, rates: list[float]) -> list[LoadPoint]:
        if not rates:
            raise ValueError("sweep needs at least one rate")
        rates = sorted(rates)
        metrics = self.run_specs([self.spec_for(r) for r in rates]).metrics
        return [self._point(r, m) for r, m in zip(rates, metrics)]

    def saturation_rate(
        self,
        low: float = 0.002,
        high: float = 0.2,
        latency_factor: float = 3.0,
        iterations: int = 6,
    ) -> float:
        """Bisect for the injection rate where latency blows past
        ``latency_factor`` x the zero-load latency (or delivery collapses)."""
        zero_load = self.measure(low)
        if zero_load.saturated:
            raise ValueError("the low anchor is already saturated")
        threshold = latency_factor * zero_load.avg_latency

        def is_saturated(rate: float) -> bool:
            point = self.measure(rate)
            return point.saturated or point.avg_latency > threshold

        if not is_saturated(high):
            return high
        lo, hi = low, high
        for _ in range(iterations):
            mid = (lo + hi) / 2.0
            if is_saturated(mid):
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2.0
