"""Classic synthetic traffic patterns.

Destination functions follow the standard Booksim/Dally-Towles
definitions; the generator layers Bernoulli injection on top to produce a
:class:`repro.traffic.trace.Trace`.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.traffic.trace import Trace, TraceEvent


class SyntheticPattern(enum.Enum):
    UNIFORM = "uniform"
    TRANSPOSE = "transpose"
    BIT_COMPLEMENT = "bit_complement"
    SHUFFLE = "shuffle"
    TORNADO = "tornado"
    NEIGHBOR = "neighbor"
    HOTSPOT = "hotspot"


def pattern_destination(
    pattern: SyntheticPattern,
    src: int,
    num_nodes: int,
    width: int,
    rng: np.random.Generator,
    hotspots: tuple[int, ...] = (),
) -> int:
    """Destination node for *src* under *pattern* (may equal src; the
    generator re-draws or skips those)."""
    if pattern is SyntheticPattern.UNIFORM:
        return int(rng.integers(num_nodes))
    if pattern is SyntheticPattern.TRANSPOSE:
        x, y = src % width, src // width
        return x * width + y
    if pattern is SyntheticPattern.BIT_COMPLEMENT:
        return (num_nodes - 1) ^ src if (num_nodes & (num_nodes - 1)) == 0 else (
            num_nodes - 1 - src
        )
    if pattern is SyntheticPattern.SHUFFLE:
        bits = int(np.log2(num_nodes))
        return ((src << 1) | (src >> (bits - 1))) & (num_nodes - 1)
    if pattern is SyntheticPattern.TORNADO:
        x, y = src % width, src // width
        return y * width + (x + width // 2 - 1) % width
    if pattern is SyntheticPattern.NEIGHBOR:
        x, y = src % width, src // width
        return y * width + (x + 1) % width
    if pattern is SyntheticPattern.HOTSPOT:
        if not hotspots:
            raise ValueError("hotspot pattern needs hotspot nodes")
        return hotspots[int(rng.integers(len(hotspots)))]  # rng.choice's draw
    raise ValueError(f"unknown pattern {pattern}")


def generate_synthetic_trace(
    pattern: SyntheticPattern,
    num_nodes: int,
    width: int,
    duration: int,
    injection_rate: float,
    packet_size: int,
    rng: np.random.Generator,
    hotspots: tuple[int, ...] = (),
) -> Trace:
    """Bernoulli injection of *injection_rate* packets/node/cycle.

    Deterministic for a given generator state; bit-permutation patterns
    whose destination equals the source simply skip that injection.
    """
    if not 0.0 <= injection_rate <= 1.0:
        raise ValueError("injection rate is packets/node/cycle in [0, 1]")
    if duration < 1:
        raise ValueError("duration must be positive")
    events: list[TraceEvent] = []
    for src in range(num_nodes):
        # Geometric inter-arrival sampling: O(packets), not O(cycles).
        if injection_rate <= 0.0:
            continue
        cycle = int(rng.geometric(injection_rate)) - 1
        while cycle < duration:
            dst = pattern_destination(pattern, src, num_nodes, width, rng, hotspots)
            attempts = 0
            while dst == src and pattern in (
                SyntheticPattern.UNIFORM,
                SyntheticPattern.HOTSPOT,
            ):
                dst = pattern_destination(pattern, src, num_nodes, width, rng, hotspots)
                attempts += 1
                if attempts > 32:
                    break
            if dst != src:
                events.append(TraceEvent(cycle, src, dst, packet_size))
            cycle += int(rng.geometric(injection_rate))
    return Trace(events, name=f"{pattern.value}-{injection_rate:g}")
