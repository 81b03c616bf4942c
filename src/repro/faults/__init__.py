"""Fault, thermal, and aging models (Section 6 of the paper).

* :mod:`repro.faults.transient` — VARIUS-style temperature/voltage-dependent
  per-bit timing-error rate and Eq. 3 flit fault probability.
* :mod:`repro.faults.thermal` — lumped-RC per-router thermal model
  (HotSpot substitute).
* :mod:`repro.faults.aging` — NBTI + HCI threshold-voltage shift
  (Eqs. 4-7) and the Aging reward factor.
* :mod:`repro.faults.mttf` — FIT/MTTF estimation from aging trajectories.
* :mod:`repro.faults.scenario` — declarative fault timelines, the one way a
  scripted fault enters a run (bursts, kills, outages, thermal attacks,
  Q-table upsets, single link strikes).
* :mod:`repro.faults.control_plane` — the Q-table bit upset a
  ``QTableCorruption`` event applies.
"""

from repro.faults.aging import AgingModel, AgingState
from repro.faults.control_plane import corrupt_random_entry
from repro.faults.mttf import MttfEstimator
from repro.faults.scenario import FaultScenario, LinkStrike
from repro.faults.thermal import ThermalModel
from repro.faults.transient import TransientFaultModel

__all__ = [
    "AgingModel",
    "AgingState",
    "corrupt_random_entry",
    "FaultScenario",
    "LinkStrike",
    "MttfEstimator",
    "ThermalModel",
    "TransientFaultModel",
]
