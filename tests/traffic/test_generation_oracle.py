"""Trace generation is the numpy-wrapped generator's, event for event.

The generators draw a destination as ``seq[int(rng.integers(len(seq)))]``,
walk an epoch's offsets as ``sorted(offsets.tolist())`` and sort a trace by
a key tuple.  The reference below keeps the forms they replaced —
``rng.choice(seq)``, ``np.sort(offsets)`` and ``sorted(events)`` through the
dataclass order — verbatim, and every trace must come out identical: the
same draws consumed in the same order, the same events in the same order.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import INTELLINOC
from repro.core import intellinoc
from repro.core.intellinoc import pretrain_agents
from repro.traffic.parsec import (
    PARSEC_PROFILES,
    BenchmarkProfile,
    _neighbor_destinations,
    _phase_multipliers,
    default_hotspots,
    generate_parsec_trace,
)
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.traffic.trace import Trace, TraceEvent
from repro.utils.rng import make_rng

# --- the reference: the generators as they were -----------------------------


def _reference_pick_destination(
    profile: BenchmarkProfile,
    src: int,
    num_nodes: int,
    hotspots: tuple[int, ...],
    neighbors: list[int],
    rng: np.random.Generator,
) -> int:
    draw = rng.random()
    if draw < profile.hotspot_fraction:
        choices = [h for h in hotspots if h != src]
        return int(rng.choice(choices))
    if draw < profile.hotspot_fraction + profile.locality and neighbors:
        return int(rng.choice(neighbors))
    dst = int(rng.integers(num_nodes))
    for _ in range(8):
        if dst != src:
            break
        dst = int(rng.integers(num_nodes))
    return dst


def _reference_parsec_events(
    profile: BenchmarkProfile,
    width: int,
    height: int,
    duration: int,
    packet_size: int,
    seed: int,
    epoch: int = 100,
) -> list[TraceEvent]:
    rng = make_rng(seed, f"parsec/{profile.name}")
    num_nodes = width * height
    num_epochs = duration // epoch
    phases = _phase_multipliers(profile, num_epochs)
    hotspots = default_hotspots(width, height)
    neighbor_cache = [_neighbor_destinations(n, width, height) for n in range(num_nodes)]
    burst_prob = 0.25
    high = 1.0 + 3.0 * profile.burstiness
    low = max(0.05, (1.0 - burst_prob * high) / (1.0 - burst_prob))
    burst_state = rng.random(num_nodes) < burst_prob
    events: list[TraceEvent] = []
    for e in range(num_epochs):
        redraw = rng.random(num_nodes) < 0.15
        fresh = rng.random(num_nodes) < burst_prob
        burst_state = np.where(redraw, fresh, burst_state)
        rate = profile.injection_rate * phases[e]
        node_rates = np.where(burst_state, rate * high, rate * low)
        counts = rng.poisson(node_rates * epoch)
        for src in np.nonzero(counts)[0]:
            src = int(src)
            offsets = rng.integers(0, epoch, size=int(counts[src]))
            for off in np.sort(offsets):
                dst = _reference_pick_destination(
                    profile, src, num_nodes, hotspots, neighbor_cache[src], rng
                )
                if dst != src:
                    reply = bool(rng.random() < profile.reply_fraction)
                    events.append(
                        TraceEvent(e * epoch + int(off), src, dst, packet_size, reply)
                    )
    return sorted(events)


def _reference_hotspot_events(
    num_nodes: int,
    duration: int,
    injection_rate: float,
    packet_size: int,
    rng: np.random.Generator,
    hotspots: tuple[int, ...],
) -> list[TraceEvent]:
    events: list[TraceEvent] = []
    for src in range(num_nodes):
        cycle = int(rng.geometric(injection_rate)) - 1
        while cycle < duration:
            dst = int(rng.choice(hotspots))
            attempts = 0
            while dst == src:
                dst = int(rng.choice(hotspots))
                attempts += 1
                if attempts > 32:
                    break
            if dst != src:
                events.append(TraceEvent(cycle, src, dst, packet_size))
            cycle += int(rng.geometric(injection_rate))
    return sorted(events)


def _as_tuples(events) -> list[tuple]:
    return [(e.cycle, e.src, e.dst, e.size, e.reply) for e in events]


# --- the checks ---------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("side", [8, 4])
@pytest.mark.parametrize("name", sorted(PARSEC_PROFILES))
def test_every_parsec_profile_generates_the_reference_events(name, side, seed):
    trace = generate_parsec_trace(name, side, side, 1500, 4, seed)
    reference = _reference_parsec_events(PARSEC_PROFILES[name], side, side, 1500, 4, seed)
    assert len(trace) > 0
    assert _as_tuples(trace.events) == _as_tuples(reference)


class _Captured(Exception):
    pass


def test_pretraining_builds_the_reference_segment_trace(monkeypatch):
    """`pretrain_agents` stitches five load-scaled segments into one trace;
    the network it would train on is stubbed to capture that trace."""
    captured: list[Trace] = []

    def capture(config, trace, **_):
        captured.append(trace)
        raise _Captured

    monkeypatch.setattr(intellinoc, "Network", capture)
    technique = replace(INTELLINOC, noc=replace(INTELLINOC.noc, width=4, height=4))
    duration, seed = 6000, 3
    with pytest.raises(_Captured):
        pretrain_agents(technique, duration=duration, seed=seed)
    profile = PARSEC_PROFILES["blackscholes"]
    multipliers = (0.5, 1.0, 2.0, 3.0, 4.5)  # pretrain_agents' load sweep
    segment = max(1000, duration // len(multipliers))
    events = []
    for i, mult in enumerate(multipliers):
        scaled = replace(profile, injection_rate=min(0.45, profile.injection_rate * mult))
        events.extend(
            TraceEvent(e.cycle + i * segment, e.src, e.dst, e.size, e.reply)
            for e in _reference_parsec_events(scaled, 4, 4, segment, 4, seed + i)
        )
    assert _as_tuples(captured[0].events) == _as_tuples(sorted(events))


@pytest.mark.parametrize("seed", [1, 7])
def test_the_hotspot_pattern_generates_the_reference_events(seed):
    hotspots = default_hotspots(8, 8)
    trace = generate_synthetic_trace(
        SyntheticPattern.HOTSPOT, 64, 8, 2000, 0.03, 4, np.random.default_rng(seed),
        hotspots=hotspots,
    )
    reference = _reference_hotspot_events(
        64, 2000, 0.03, 4, np.random.default_rng(seed), hotspots
    )
    assert len(trace) > 0
    assert _as_tuples(trace.events) == _as_tuples(reference)


_events = st.lists(
    st.builds(
        TraceEvent,
        cycle=st.integers(0, 6),
        src=st.integers(0, 3),
        dst=st.integers(4, 6),
        size=st.integers(1, 2),
        reply=st.booleans(),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_events)
def test_a_trace_sorts_exactly_as_the_dataclass_order(events):
    """Duplicate ``(cycle, src)`` keys and wholly equal events abound; the
    key sort is stable, so even equal events keep their input order."""
    assert [id(e) for e in Trace(events).events] == [id(e) for e in sorted(events)]
