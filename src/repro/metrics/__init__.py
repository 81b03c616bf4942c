"""Metric extraction and aggregation.

* :mod:`repro.metrics.summary` — :class:`RunMetrics`, the standard bundle
  of everything one simulation reports (Figs. 9-16 inputs), and its one
  serialisation (``dataclasses.asdict`` of its fields and back).
* :mod:`repro.metrics.latency` — latency distributions.
* :mod:`repro.metrics.energy` — Eq. 8 energy-efficiency and power splits.
* :mod:`repro.metrics.reliability` — retransmission/corruption rates and
  MTTF normalization.
"""

from repro.metrics.energy import energy_delay_product, energy_efficiency
from repro.metrics.latency import LatencySummary
from repro.metrics.reliability import ReliabilitySummary
from repro.metrics.summary import RunMetrics

__all__ = [
    "LatencySummary",
    "ReliabilitySummary",
    "RunMetrics",
    "energy_delay_product",
    "energy_efficiency",
]
