"""IntelliNoC core: RL pre-training and the experiment harness.

* :mod:`repro.core.intellinoc` — :func:`pretrain_agents`, RL pre-training
  (Section 6.3); a cell runs through :mod:`repro.exec.worker`.
* :mod:`repro.core.experiment` — the paper's evaluation grid
  (:data:`FULL_GRID`, the Figs. 17-18 :data:`SWEEPS`) and the (technique x
  benchmark) campaign runner producing the per-figure metrics.

The runtime mode-control policies live in :mod:`repro.control.policies`
and are re-exported here for convenience.
"""

from repro.control.policies import (
    HeuristicEccPolicy,
    ModePolicy,
    RlPolicy,
    StaticPolicy,
    make_policy,
)
from repro.core.experiment import ExperimentRunner
from repro.core.intellinoc import pretrain_agents

__all__ = [
    "ExperimentRunner",
    "HeuristicEccPolicy",
    "ModePolicy",
    "RlPolicy",
    "StaticPolicy",
    "make_policy",
    "pretrain_agents",
]
