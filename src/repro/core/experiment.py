"""Experiment harness: the paper's evaluation grid and its (technique x
benchmark) campaigns (Section 7).

:data:`FULL_GRID` is the one set of campaign defaults: the runner and the
CLI read it.  Every figure of Figs. 9-16 compares the five
techniques over the PARSEC suite, normalized to the SECDED baseline.  The
runner builds one :class:`~repro.exec.spec.CellSpec` per campaign cell
(:meth:`ExperimentRunner.spec_for`, which lays out the paper table's
cells too) and hands the grid to the
:class:`~repro.exec.engine.CampaignEngine` its inherited
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
    TechniqueConfig,
    all_techniques,
)
from repro.core import figures
from repro.exec.engine import EngineOptions
from repro.exec.spec import CellSpec, parsec_cell
from repro.metrics.summary import RunMetrics
from repro.traffic.parsec import PARSEC_BENCHMARKS


@dataclass(frozen=True)
class Grid:
    """How large a run of the table is.  Not options: two constants."""

    name: str
    benchmarks: tuple[str, ...]
    duration: int  # the Figs. 9-16 suite's traces
    pretrain: int  # RL pre-training cycles (Section 6.3)
    tuning_duration: int  # Figs. 17-18 and the MFAC / bypass ablations
    reward_duration: int  # the Eq. 1 ablation, at a 250-cycle control step
    seed: int = 7


FULL_GRID = Grid("full", tuple(PARSEC_BENCHMARKS), 6_000, 40_000, 8_000, 30_000)
REDUCED_GRID = Grid("reduced", ("swa", "fre"), 800, 1_500, 300, 300)

#: Figs. 17(a), 18(a), 18(b): RlConfig field -> (figure, title, values,
#: the tuned value the others are normalised to, unit).
SWEEPS = {
    "time_step": ("fig17a_timestep", "Fig. 17(a) - Impact of RL time step",
                  (200, 500, 1000, 10_000), 1000, " cycles"),
    "discount": ("fig18a_gamma", "Fig. 18(a) - Impact of discount rate",
                 (0.0, 0.1, 0.2, 0.5, 0.9, 1.0), 0.9, ""),
    "epsilon": ("fig18b_epsilon", "Fig. 18(b) - Impact of exploration probability",
                (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0), 0.05, ""),
}


def _over_campaign(render):
    """The runner method that renders one figure of :mod:`repro.core.figures`
    over the runner's (cached) campaign."""

    def method(self: "ExperimentRunner"):
        return render(self.run_campaign(), self._technique_names, self.benchmarks)

    method.__doc__ = render.__doc__
    return method


@dataclass
class ExperimentRunner(EngineOptions):
    """Runs full campaigns and renders the paper's figures as tables; the
    defaults are :data:`FULL_GRID`'s suite.

    How cells execute (``jobs``, ``cache_dir``, ``failure_policy``,
    ``timeout_s`` ...) is :class:`~repro.exec.engine.EngineOptions`.
    """

    duration: int = FULL_GRID.duration
    seed: int = FULL_GRID.seed
    faults: FaultConfig = field(default_factory=FaultConfig)
    benchmarks: list[str] = field(default_factory=lambda: list(FULL_GRID.benchmarks))
    techniques: list[TechniqueConfig] = field(default_factory=all_techniques)
    pretrain_cycles: int = FULL_GRID.pretrain
    _cache: dict[tuple[str, str], RunMetrics] = field(default_factory=dict, repr=False)

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

    # --- campaign execution ---------------------------------------------------

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

    # The two figures the repository benchmark's campaign renders; any suite
    # figure is ``figures.SUITE_FIGURES[name](self.run_campaign(), ...)``.
    figure10_latency = _over_campaign(figures.figure10_latency)
    figure13_energy_efficiency = _over_campaign(figures.figure13_energy_efficiency)
