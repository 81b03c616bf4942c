"""Run and epoch statistics.

Two scopes:

* **run totals** — everything the experiment harness reports (latency
  distribution, retransmissions, correction counts, execution time).
* **epoch counters** — per-router activity over the current RL/control
  epoch, feeding the state features of Fig. 7, the reward of Eq. 1, and
  the CPD heuristic; reset at every control step.
"""

from __future__ import annotations

import numpy as np

from repro.noc.routing import NUM_PORTS

#: Per-run cap on retained latency samples.  Mean latency is always exact
#: (tracked by running sum/count); percentiles are exact up to this many
#: completed packets and reservoir-sampled beyond it, bounding a long
#: campaign's memory at a few hundred KB per run instead of growing with
#: packet count.
LATENCY_RESERVOIR_SIZE = 65_536


#: Domain tag separating the reservoir's private stream from every other
#: stream derived from the same run seed.
_RESERVOIR_STREAM_TAG = 0x1E55E4


class ReservoirSample:
    """Fixed-size uniform sample of a stream (Vitter's algorithm R).

    Below ``capacity`` the sample IS the stream, in arrival order, so
    small runs (all tests) see exact percentile behavior.  The replacement
    draws use a private generator derived from the run *seed* (plus a
    fixed domain tag), keeping runs a pure function of ``(config, trace,
    seed)`` while staying identical between sanitizer-mode and normal-mode
    campaigns that share a spec hash.
    """

    def __init__(self, capacity: int = LATENCY_RESERVOIR_SIZE, seed: int = 0):
        if capacity < 1:
            raise ValueError("reservoir needs capacity of at least one sample")
        self.capacity = capacity
        self.samples: list[int] = []
        self.seen = 0
        self._rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), _RESERVOIR_STREAM_TAG])
        )

    def add(self, value: int) -> None:
        self.seen += 1
        if len(self.samples) < self.capacity:
            self.samples.append(value)
            return
        slot = int(self._rng.integers(0, self.seen))
        if slot < self.capacity:
            self.samples[slot] = value


class RouterEpochCounters:
    """Per-router activity within the current control epoch.

    Vectors are sized by the router's port count — 5 on the mesh/torus,
    3 on the ring, ``4 + c`` on a concentrated mesh.

    ``in_flits``, ``out_flits`` and ``error_classes`` are bumped once per
    flit hop, so they are lists of Python ints (an int64 array element
    costs an array-scalar round trip per ``+= 1``); their readers — the
    control step's observation and the stats epoch — run once per epoch
    and convert there.  ``reset`` zeroes them in place.
    """

    __slots__ = (
        "num_ports",
        "in_flits",
        "out_flits",
        "occupancy_samples",
        "num_occupancy_samples",
        "error_classes",
        "latency_sum",
        "latency_count",
    )

    def __init__(self, num_ports: int = NUM_PORTS):
        self.num_ports = num_ports
        self.in_flits = [0] * num_ports
        self.out_flits = [0] * num_ports
        self.occupancy_samples = np.zeros(num_ports, dtype=np.float64)
        self.num_occupancy_samples = 0
        # Error-class histogram of flits received this epoch:
        # [clean, 1-bit, 2-bit, >=3-bit] — drives the CPD heuristic.
        self.error_classes = [0, 0, 0, 0]
        self.latency_sum = 0  # latency of packets sourced here that completed
        self.latency_count = 0

    def reset(self) -> None:
        self.in_flits[:] = [0] * self.num_ports
        self.out_flits[:] = [0] * self.num_ports
        self.occupancy_samples[:] = 0
        self.num_occupancy_samples = 0
        self.error_classes[:] = [0, 0, 0, 0]
        self.latency_sum = 0
        self.latency_count = 0

    def record_error_class(self, bit_errors: int) -> None:
        self.error_classes[bit_errors if bit_errors < 3 else 3] += 1

    def mean_buffer_utilization(self) -> np.ndarray:
        if self.num_occupancy_samples == 0:
            return np.zeros(self.num_ports)
        return self.occupancy_samples / self.num_occupancy_samples


class NetworkStatistics:
    """Whole-run statistics plus per-router epoch counters."""

    def __init__(self, num_routers: int, seed: int = 0, num_ports: int = NUM_PORTS):
        self.num_routers = num_routers
        self.num_ports = num_ports
        self.routers = [RouterEpochCounters(num_ports) for _ in range(num_routers)]

        # Run totals.
        self.packets_injected = 0
        self.packets_completed = 0
        self.flits_delivered = 0  # flit-hops over links
        self.flits_ejected_total = 0  # flits that reached their destination NI
        self.latency_sum = 0
        self.latency_count = 0
        # Per-packet latencies for percentiles; replacement draws derive
        # from the run seed so the sample is part of the spec-hash contract.
        self._latency_reservoir = ReservoirSample(seed=seed)
        self.hop_retransmissions = 0  # per-hop NACK replays (flits)
        self.e2e_retransmission_flits = 0  # flits re-injected end to end
        self.corrected_flits = 0
        self.silent_corruptions = 0  # flits past the detection envelope
        self.corrupted_packets_delivered = 0
        self.bypass_traversals = 0
        self.wakeups = 0
        self.mode_cycles: dict[int, int] = {m: 0 for m in range(5)}
        self.last_completion_cycle = 0
        # Delivery accounting under scripted fault scenarios: every injected
        # packet must end up completed, dropped-with-reason, or refused as
        # undeliverable — the sanitizer audits exactly this ledger.
        self.packets_dropped_dead_router = 0  # lost to a RouterFailure
        self.packets_dropped_dead_link = 0  # lost to a LinkFailure
        self.packets_undeliverable = 0  # refused at injection (dead endpoint)
        self.flits_dropped = 0  # flits excised from buffers/channels on drops
        # Cycles from each structural failure to the next completed packet
        # (time-to-recover samples for the reliability report).
        self.recovery_cycles: list[int] = []

    # --- packet lifecycle -----------------------------------------------------

    def record_injection(self) -> None:
        self.packets_injected += 1

    def record_completion(
        self,
        latency: int,
        src_router: int,
        cycle: int,
        path: list[int] | None = None,
    ) -> None:
        self.packets_completed += 1
        self.latency_sum += latency
        self.latency_count += 1
        self._latency_reservoir.add(latency)
        self.last_completion_cycle = cycle
        # Eq. 1's Latency_i: the end-to-end latency of "the specific router
        # i" is attributed to every router the packet transited, so a slow
        # router feels the slowdown it causes to through-traffic.
        routers = path if path else [src_router]
        for rid in routers:
            ctr = self.routers[rid]
            ctr.latency_sum += latency
            ctr.latency_count += 1

    @property
    def latencies(self) -> list[int]:
        """Retained per-packet latency samples (exact list for runs under
        the reservoir size, a uniform subsample beyond it)."""
        return self._latency_reservoir.samples

    @property
    def average_latency(self) -> float:
        if self.latency_count == 0:
            raise ValueError("no packets completed")
        return self.latency_sum / self.latency_count

    @property
    def total_retransmitted_flits(self) -> int:
        """Fig. 15's metric: per-hop replays plus end-to-end re-injections."""
        return self.hop_retransmissions + self.e2e_retransmission_flits

    @property
    def packets_dropped(self) -> int:
        """Packets lost to dead elements (always dropped *with* a reason)."""
        return self.packets_dropped_dead_router + self.packets_dropped_dead_link

    @property
    def packets_resolved(self) -> int:
        """Packets whose fate is settled: delivered, dropped, or refused."""
        return self.packets_completed + self.packets_dropped + self.packets_undeliverable

    @property
    def delivery_ratio(self) -> float:
        """Completed / injected (1.0 on an empty run: nothing was lost)."""
        if self.packets_injected == 0:
            return 1.0
        return self.packets_completed / self.packets_injected

    # --- epoch handling ---------------------------------------------------------

    def reset_epoch(self) -> None:
        for ctr in self.routers:
            ctr.reset()

    def record_mode_cycles(self, mode: int, cycles: int) -> None:
        self.mode_cycles[mode] = self.mode_cycles.get(mode, 0) + cycles

    def mode_breakdown(self) -> dict[int, float]:
        """Fraction of router-cycles spent in each operation mode (Fig. 14)."""
        total = sum(self.mode_cycles.values())
        if total == 0:
            return {m: 0.0 for m in self.mode_cycles}
        return {m: c / total for m, c in sorted(self.mode_cycles.items())}
