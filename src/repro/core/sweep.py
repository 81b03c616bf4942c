"""Parameter sweeps for the sensitivity studies (Figs. 17-18).

Each sweep varies one knob of the IntelliNoC configuration — RL time step,
injected error rate, discount rate gamma, exploration epsilon — and
re-runs the blackscholes tuning workload, reporting the metrics the paper
plots.  Sweep points are independent cells, so they run through the same
campaign engine as the figure grids: ``jobs > 1`` evaluates points in
parallel and a result store memoizes them across invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.config import FaultConfig, INTELLINOC, TechniqueConfig
from repro.exec.engine import EngineOptions
from repro.exec.spec import CellSpec, parsec_cell
from repro.metrics.summary import RunMetrics


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the knob value and the run's metrics."""

    value: float
    metrics: RunMetrics

    @property
    def edp(self) -> float:
        return self.metrics.energy_delay_product

    @property
    def retransmission_rate(self) -> float:
        return self.metrics.reliability.retransmission_rate


@dataclass
class SensitivitySweep(EngineOptions):
    """Sweep driver over the blackscholes tuning benchmark."""

    technique: TechniqueConfig = field(default_factory=lambda: INTELLINOC)
    benchmark: str = "blackscholes"
    duration: int = 8_000
    seed: int = 1
    faults: FaultConfig = field(default_factory=FaultConfig)

    def _spec(self, technique: TechniqueConfig, faults: FaultConfig) -> CellSpec:
        return parsec_cell(
            technique=technique,
            benchmark=self.benchmark,
            duration=self.duration,
            seed=self.seed,
            faults=faults,
        )

    def _run_points(
        self, values: list[float], specs: list[CellSpec]
    ) -> list[SweepPoint]:
        # Quarantined/skipped points drop out of the curve instead of
        # killing the sweep; the engine's report still names them.
        metrics = self.run_specs(specs, "sweep.run", "points").metrics
        return [
            SweepPoint(v, m) for v, m in zip(values, metrics) if m is not None
        ]

    def sweep_time_step(self, steps: list[int]) -> list[SweepPoint]:
        """Fig. 17(a): RL control interval from 200 to 10k cycles."""
        return self._run_points(
            steps,
            [self._spec(self.technique.with_rl(time_step=s), self.faults)
             for s in steps],
        )

    def sweep_error_rate(self, rates: list[float]) -> list[SweepPoint]:
        """Fig. 17(b): injected average bit error rates (1e-10 .. 1e-7)."""
        return self._run_points(
            rates,
            [self._spec(
                self.technique, replace(self.faults, base_bit_error_rate=r)
            ) for r in rates],
        )

    def sweep_gamma(self, gammas: list[float]) -> list[SweepPoint]:
        """Fig. 18(a): discount rate gamma in [0, 1]."""
        return self._run_points(
            gammas,
            [self._spec(self.technique.with_rl(discount=g), self.faults)
             for g in gammas],
        )

    def sweep_epsilon(self, epsilons: list[float]) -> list[SweepPoint]:
        """Fig. 18(b): exploration probability epsilon in [0, 1]."""
        return self._run_points(
            epsilons,
            [self._spec(self.technique.with_rl(epsilon=e), self.faults)
             for e in epsilons],
        )
