"""Synthetic PARSEC benchmark profiles (Netrace substitute, Section 6.3).

The paper drives Booksim2 with Netrace-captured PARSEC traces.  Those
traces encode three properties that matter to the techniques under study:

* **intensity** — average injection rate (PARSEC NoC loads are light),
* **spatial skew** — memory-controller hotspots and nearest-neighbor
  locality vs uniform spread,
* **temporal structure** — bursts and program phases.

Each :class:`BenchmarkProfile` parameterizes those axes; values are chosen
to span the published PARSEC characterization range (compute-bound
swaptions at the quiet end, canneal/x264 at the communication-heavy end).
All five techniques are always evaluated on the *identical* generated
trace (same seed), so per-benchmark comparisons are apples-to-apples.

Figure labels use the paper's abbreviations: bod can dedup fac fer fre flu
swa vips x264s, plus blackscholes for RL pre-training/tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traffic.trace import Trace, TraceEvent
from repro.utils.rng import make_rng

# Default hotspot nodes: the four memory controllers at the mesh corners.
def default_hotspots(width: int, height: int) -> tuple[int, ...]:
    return (0, width - 1, (height - 1) * width, height * width - 1)


@dataclass(frozen=True)
class BenchmarkProfile:
    """Traffic characteristics of one benchmark."""

    name: str
    injection_rate: float  # packets/node/cycle, long-run average
    burstiness: float  # 0 = smooth Poisson, 1 = highly clumped
    hotspot_fraction: float  # packets aimed at memory controllers
    locality: float  # packets aimed at <=2-hop neighbors
    phase_count: int = 2  # program phases over the trace
    phase_swing: float = 0.3  # +- rate modulation across phases
    reply_fraction: float = 0.5  # requests that expect a reply packet

    def __post_init__(self) -> None:
        if not 0.0 < self.injection_rate < 1.0:
            raise ValueError("injection rate must be in (0, 1)")
        for field_name in (
            "burstiness",
            "hotspot_fraction",
            "locality",
            "phase_swing",
            "reply_fraction",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1]")
        if self.hotspot_fraction + self.locality > 1.0:
            raise ValueError("hotspot + locality fractions exceed 1")


PARSEC_PROFILES: dict[str, BenchmarkProfile] = {
    "blackscholes": BenchmarkProfile("blackscholes", 0.008, 0.2, 0.25, 0.20, 2, 0.2),
    "bod": BenchmarkProfile("bod", 0.014, 0.35, 0.30, 0.25, 3, 0.3),
    "can": BenchmarkProfile("can", 0.024, 0.30, 0.28, 0.10, 2, 0.2),
    "dedup": BenchmarkProfile("dedup", 0.020, 0.55, 0.28, 0.20, 4, 0.4),
    "fac": BenchmarkProfile("fac", 0.018, 0.25, 0.30, 0.30, 2, 0.25),
    "fer": BenchmarkProfile("fer", 0.022, 0.40, 0.30, 0.15, 3, 0.35),
    "fre": BenchmarkProfile("fre", 0.012, 0.30, 0.25, 0.25, 2, 0.2),
    "flu": BenchmarkProfile("flu", 0.020, 0.30, 0.20, 0.45, 3, 0.3),
    "swa": BenchmarkProfile("swa", 0.006, 0.15, 0.20, 0.25, 1, 0.0),
    "vips": BenchmarkProfile("vips", 0.021, 0.50, 0.28, 0.15, 4, 0.4),
    "x264s": BenchmarkProfile("x264s", 0.024, 0.45, 0.28, 0.20, 5, 0.45),
}

PARSEC_BENCHMARKS = [k for k in PARSEC_PROFILES if k != "blackscholes"]


def _phase_multipliers(profile: BenchmarkProfile, num_epochs: int) -> np.ndarray:
    """Per-epoch rate multipliers realizing the benchmark's phases."""
    if profile.phase_count <= 1 or profile.phase_swing == 0.0:  # noqa: NOC302 -- exact profile constant meaning "phases disabled"
        return np.ones(num_epochs)
    phase_of_epoch = (
        np.arange(num_epochs) * profile.phase_count // max(1, num_epochs)
    ) % profile.phase_count
    # Alternate phases above/below the mean rate.
    signs = np.where(phase_of_epoch % 2 == 0, 1.0, -1.0)
    return 1.0 + signs * profile.phase_swing


def _neighbor_destinations(src: int, width: int, height: int) -> list[int]:
    """Nodes within Manhattan distance 2 of *src* (excluding src)."""
    x, y = src % width, src // width
    out = []
    for dx in range(-2, 3):
        for dy in range(-2, 3):
            if dx == dy == 0 or abs(dx) + abs(dy) > 2:
                continue
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height:
                out.append(ny * width + nx)
    return out


def generate_parsec_trace(
    benchmark: str | BenchmarkProfile,
    width: int,
    height: int,
    duration: int,
    packet_size: int,
    seed: int,
    epoch: int = 100,
) -> Trace:
    """Generate a trace realizing a benchmark profile.

    Injections are drawn per (node, epoch) from a doubly-stochastic
    process: a Poisson count whose rate is modulated by program phase and
    by a per-node burst state (two-state Markov-modulated rate), then
    placed uniformly within the epoch — an MMPP, the standard model for
    bursty on-chip traffic.
    """
    profile = (
        PARSEC_PROFILES[benchmark] if isinstance(benchmark, str) else benchmark
    )
    if duration < epoch:
        raise ValueError("duration must cover at least one epoch")
    rng = make_rng(seed, f"parsec/{profile.name}")
    num_nodes = width * height
    num_epochs = duration // epoch
    phases = _phase_multipliers(profile, num_epochs)
    hotspots = default_hotspots(width, height)
    neighbor_cache = [_neighbor_destinations(n, width, height) for n in range(num_nodes)]

    # Burst modulation: in-burst nodes inject at an elevated rate, idle
    # nodes at a floor; stationary mean equals the profile's rate.
    burst_prob = 0.25
    high = 1.0 + 3.0 * profile.burstiness
    low = max(0.05, (1.0 - burst_prob * high) / (1.0 - burst_prob))
    burst_state = rng.random(num_nodes) < burst_prob

    events: list[TraceEvent] = []
    for e in range(num_epochs):
        # Evolve burst states with a sticky chain whose stationary burst
        # fraction equals burst_prob: keep the old state with prob 0.85,
        # otherwise redraw from the stationary distribution.
        redraw = rng.random(num_nodes) < 0.15
        fresh = rng.random(num_nodes) < burst_prob
        burst_state = np.where(redraw, fresh, burst_state)
        rate = profile.injection_rate * phases[e]
        node_rates = np.where(burst_state, rate * high, rate * low)
        counts = rng.poisson(node_rates * epoch)
        for src in np.nonzero(counts)[0]:
            src = int(src)
            offsets = rng.integers(0, epoch, size=int(counts[src]))
            for off in sorted(offsets.tolist()):
                dst = _pick_destination(
                    profile, src, num_nodes, hotspots, neighbor_cache[src], rng
                )
                if dst != src:
                    reply = bool(rng.random() < profile.reply_fraction)
                    events.append(
                        TraceEvent(e * epoch + off, src, dst, packet_size, reply)
                    )
    return Trace(events, name=profile.name)


def _pick_destination(
    profile: BenchmarkProfile,
    src: int,
    num_nodes: int,
    hotspots: tuple[int, ...],
    neighbors: list[int],
    rng: np.random.Generator,
) -> int:
    # ``seq[int(rng.integers(len(seq)))]`` is ``rng.choice(seq)`` — the same
    # single draw — without converting the list to an array per event.
    draw = rng.random()
    if draw < profile.hotspot_fraction:
        choices = [h for h in hotspots if h != src]
        return choices[int(rng.integers(len(choices)))]
    if draw < profile.hotspot_fraction + profile.locality and neighbors:
        return neighbors[int(rng.integers(len(neighbors)))]
    dst = int(rng.integers(num_nodes))
    for _ in range(8):
        if dst != src:
            break
        dst = int(rng.integers(num_nodes))
    return dst
