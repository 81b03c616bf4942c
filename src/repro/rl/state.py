"""RL state extraction (Fig. 7).

Sixteen per-router features, monitored over each control epoch:

1-5   input link utilization of the five ports (flits/cycle),
6-10  buffer utilization of the five input ports (occupied fraction),
11-15 output link utilization of the five ports (flits/cycle),
16    router temperature (kelvin here; the paper uses Celsius — a fixed
      offset that discretization absorbs).

Continuous features are evenly discretized into ``num_bins`` bins over a
per-feature range established by benchmark profiling (Section 5), matching
the paper's construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.noc.routing import NUM_PORTS
from repro.noc.statistics import RouterEpochCounters

# Profiling-derived feature ranges (Section 5: "evenly discretized into
# five bins according to the range of each feature through benchmark
# profiling"): PARSEC-class loads keep link utilizations well below 0.15
# flits/cycle, and router temperatures between ambient and hotspot peaks.
LINK_UTILIZATION_RANGE = (0.0, 0.30)
BUFFER_UTILIZATION_RANGE = (0.0, 0.75)
TEMPERATURE_RANGE = (316.0, 350.0)


@dataclass(frozen=True)
class RouterObservation:
    """Everything a control policy may observe about one router, per epoch."""

    router: int
    in_link_utilization: np.ndarray  # one entry per port, flits/cycle
    buffer_utilization: np.ndarray  # one entry per port, fraction
    out_link_utilization: np.ndarray  # one entry per port, flits/cycle
    temperature: float  # kelvin
    epoch_power_w: float
    epoch_latency: float  # avg latency of packets sourced here (cycles)
    aging_factor: float  # Eq. 7
    error_classes: np.ndarray  # [clean, 1-bit, 2-bit, >=3-bit] flit counts

    @classmethod
    def from_counters(
        cls,
        router: int,
        counters: RouterEpochCounters,
        epoch_cycles: int,
        temperature: float,
        epoch_power_w: float,
        fallback_latency: float,
        aging_factor: float,
    ) -> "RouterObservation":
        if epoch_cycles < 1:
            raise ValueError("epoch must span at least one cycle")
        if counters.latency_count > 0:
            latency = counters.latency_sum / counters.latency_count
        else:
            latency = fallback_latency
        # The counters are plain int lists on the write side (one bump per
        # flit hop); policies and the state extractor see arrays.
        return cls(
            router=router,
            in_link_utilization=np.array(counters.in_flits, dtype=np.int64)
            / epoch_cycles,
            buffer_utilization=counters.mean_buffer_utilization(),
            out_link_utilization=np.array(counters.out_flits, dtype=np.int64)
            / epoch_cycles,
            temperature=temperature,
            epoch_power_w=epoch_power_w,
            epoch_latency=latency,
            aging_factor=aging_factor,
            error_classes=np.array(counters.error_classes, dtype=np.int64),
        )


class StateExtractor:
    """Discretizes observations into hashable Q-table state keys.

    The feature count follows the router's port count (``3 * ports + 1``):
    16 on the five-port mesh/torus (Fig. 7), 10 on the three-port ring,
    and ``3 * (4 + c) + 1`` on a concentrated mesh.
    """

    #: Feature count for the paper's five-port configuration.
    NUM_FEATURES = 3 * NUM_PORTS + 1

    def __init__(self, num_bins: int = 5):
        if num_bins < 2:
            raise ValueError("need at least two bins")
        self.num_bins = num_bins

    def _discretize(self, value: float, lo: float, hi: float) -> int:
        """Even binning over [lo, hi]; out-of-range clamps to edge bins."""
        if hi <= lo:
            raise ValueError("empty feature range")
        if value <= lo:
            return 0
        if value >= hi:
            return self.num_bins - 1
        return int((value - lo) / (hi - lo) * self.num_bins)

    def extract(self, obs: RouterObservation) -> tuple[int, ...]:
        """Fig. 7's 16 features as a tuple of bin indices.

        Within each five-port group the bins are sorted (descending): the
        control problem is symmetric under port relabeling, so collapsing
        permutations multiplies state reuse without losing load-shape
        information — this is what keeps the visited-state count in the
        paper's <=300-entry regime.
        """
        lo, hi = LINK_UTILIZATION_RANGE
        in_bins = sorted(
            (self._discretize(v, lo, hi) for v in obs.in_link_utilization),
            reverse=True,
        )
        out_bins = sorted(
            (self._discretize(v, lo, hi) for v in obs.out_link_utilization),
            reverse=True,
        )
        lo, hi = BUFFER_UTILIZATION_RANGE
        buf_bins = sorted(
            (self._discretize(v, lo, hi) for v in obs.buffer_utilization),
            reverse=True,
        )
        lo, hi = TEMPERATURE_RANGE
        bits = (
            in_bins + buf_bins + out_bins + [self._discretize(obs.temperature, lo, hi)]
        )
        assert len(bits) == 3 * len(obs.in_link_utilization) + 1
        return tuple(bits)
