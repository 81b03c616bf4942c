"""Experiment harness: (technique x benchmark) campaigns (Section 7).

Every figure of the paper's evaluation compares the five techniques over
the PARSEC suite, normalized to the SECDED baseline.  The runner builds
one :class:`~repro.exec.spec.CellSpec` per campaign cell and hands the
grid to the :class:`~repro.exec.engine.CampaignEngine` its inherited
:class:`~repro.exec.engine.EngineOptions` build, which executes cells
serially or across worker processes (``jobs``) and memoizes results in an
on-disk content-addressed store (``cache_dir``/``use_cache``).
Figure rendering is delegated to the pure functions of
:mod:`repro.core.figures`, which read only stored results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import (
    ControlPolicy,
    FaultConfig,
    SimulationConfig,
    TechniqueConfig,
    all_techniques,
)
from repro.control.policies import ModePolicy
from repro.core import figures
from repro.exec.engine import EngineOptions
from repro.exec.spec import CellSpec, parsec_cell
from repro.metrics.summary import RunMetrics, run_to_metrics
from repro.noc.network import Network
from repro.telemetry import Telemetry
from repro.traffic.parsec import PARSEC_BENCHMARKS, generate_parsec_trace
from repro.traffic.trace import Trace


def run_technique(
    technique: TechniqueConfig,
    trace: Trace,
    seed: int = 1,
    faults: FaultConfig | None = None,
    policy: ModePolicy | None = None,
    max_cycles: int | None = None,
    telemetry: Telemetry | None = None,
) -> RunMetrics:
    """Run one technique on one explicit trace to completion.

    The low-level escape hatch for callers that bring their own trace or
    policy (ablations); campaign work should go through specs and the
    engine so it parallelizes and caches.  An enabled *telemetry* hub
    observes the run (mode timeline, reward decomposition, instrument
    snapshot) without changing its results.
    """
    config = SimulationConfig(
        technique=technique,
        seed=seed,
        faults=faults if faults is not None else FaultConfig(),
    )
    network = Network(config, trace, policy=policy, telemetry=telemetry)
    return run_to_metrics(network, max_cycles)


def _over_campaign(render):
    """The runner method that renders one figure of :mod:`repro.core.figures`
    over the runner's (cached) campaign."""

    def method(self: "ExperimentRunner"):
        return render(self.run_campaign(), self._technique_names, self.benchmarks)

    method.__doc__ = render.__doc__
    return method


@dataclass
class ExperimentRunner(EngineOptions):
    """Runs full campaigns and renders the paper's figures as tables.

    How cells execute (``jobs``, ``cache_dir``, ``failure_policy``,
    ``journal_path`` ...) is :class:`~repro.exec.engine.EngineOptions`.
    """

    duration: int = 8_000
    seed: int = 1
    faults: FaultConfig = field(default_factory=FaultConfig)
    benchmarks: list[str] = field(default_factory=lambda: list(PARSEC_BENCHMARKS))
    techniques: list[TechniqueConfig] = field(default_factory=all_techniques)
    pretrain_cycles: int = 16_000
    _cache: dict[tuple[str, str], RunMetrics] = field(default_factory=dict, repr=False)
    _trace_cache: dict[tuple, Trace] = field(default_factory=dict, repr=False)

    def spec_for(self, technique: TechniqueConfig, benchmark: str) -> CellSpec:
        """The content-addressed job description of one campaign cell."""
        pretrain = (
            self.pretrain_cycles
            if technique.policy is ControlPolicy.RL
            else 0
        )
        return parsec_cell(
            technique=technique,
            benchmark=benchmark,
            duration=self.duration,
            seed=self.seed,
            faults=self.faults,
            pretrain_cycles=pretrain,
        )

    def trace_for(self, benchmark: str, technique: TechniqueConfig) -> Trace:
        """The exact trace a cell runs (techniques with one geometry share it).

        The key carries the full generator parameter set — mesh geometry,
        duration, packet size and seed — so techniques with different NoC
        shapes never silently share a trace built for another geometry.
        """
        noc = technique.noc
        key = (
            benchmark, noc.width, noc.height, self.duration,
            noc.flits_per_packet, self.seed,
        )
        if key not in self._trace_cache:
            self._trace_cache[key] = generate_parsec_trace(
                benchmark, noc.width, noc.height, self.duration,
                noc.flits_per_packet, self.seed,
            )
        return self._trace_cache[key]

    # --- campaign execution ---------------------------------------------------

    def run_cell(
        self, technique: TechniqueConfig, benchmark: str
    ) -> RunMetrics | None:
        """One cell's metrics — None when the cell was skipped/quarantined."""
        key = (technique.name, benchmark)
        if key not in self._cache:
            report = self.run_specs([self.spec_for(technique, benchmark)])
            if report.metrics[0] is None:
                return None  # not memoized: a later run may retry it
            self._cache[key] = report.metrics[0]
        return self._cache[key]

    def run_campaign(self) -> dict[tuple[str, str], RunMetrics]:
        """All (technique, benchmark) cells, executed via the engine.

        Under the non-aborting failure policies a failed cell simply has
        no entry, so figure renderers degrade to the surviving rows (the
        cells appear in ``engine.quarantined`` for reporting).
        """
        missing = [
            (technique, benchmark)
            for technique in self.techniques
            for benchmark in self.benchmarks
            if (technique.name, benchmark) not in self._cache
        ]
        if missing:
            specs = [self.spec_for(t, b) for t, b in missing]
            report = self.run_specs(specs)
            for (technique, benchmark), metrics in zip(missing, report.metrics):
                if metrics is not None:
                    self._cache[(technique.name, benchmark)] = metrics
        return dict(self._cache)

    # --- figure renderers (pure functions over campaign results) -------------

    @property
    def _technique_names(self) -> list[str]:
        return [t.name for t in self.techniques]

    figure9_speedup = _over_campaign(figures.figure9_speedup)
    figure10_latency = _over_campaign(figures.figure10_latency)
    figure11_static_power = _over_campaign(figures.figure11_static_power)
    figure12_dynamic_power = _over_campaign(figures.figure12_dynamic_power)
    figure13_energy_efficiency = _over_campaign(figures.figure13_energy_efficiency)
    figure15_retransmissions = _over_campaign(figures.figure15_retransmissions)
    figure16_mttf = _over_campaign(figures.figure16_mttf)
    reliability_table = _over_campaign(figures.reliability_table)

    def figure14_mode_breakdown(self):
        return figures.figure14_mode_breakdown(
            self.run_campaign(), self.benchmarks
        )
