"""IntelliNoC core: the top-level system facade and experiment harness.

* :mod:`repro.core.intellinoc` — :class:`IntelliNoCSystem`, the top-level
  public API binding a technique, a workload, and the simulator, plus RL
  pre-training (Section 6.3).
* :mod:`repro.core.experiment` — the (technique x benchmark) campaign
  runner producing the paper's per-figure metrics.
* :mod:`repro.core.sweep` — parameter sweeps for the sensitivity studies.

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
from repro.core.loadlatency import LoadLatencySweep, LoadPoint
from repro.core.intellinoc import IntelliNoCSystem, pretrain_agents
from repro.core.sweep import SensitivitySweep, SweepPoint

__all__ = [
    "ExperimentRunner",
    "LoadLatencySweep",
    "LoadPoint",
    "HeuristicEccPolicy",
    "IntelliNoCSystem",
    "ModePolicy",
    "RlPolicy",
    "SensitivitySweep",
    "StaticPolicy",
    "SweepPoint",
    "make_policy",
    "pretrain_agents",
]
