"""Tests for the MFAC control path: `Router.apply_mode` sets the function of
a router's outgoing MFACs from Section 4's mode table."""

from dataclasses import replace

import pytest

from repro.channels.mfac import ChannelFunction
from repro.config import CPD, INTELLINOC, OPERATION_MODES, SimulationConfig
from repro.noc.network import Network
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.traffic.trace import Trace
from repro.utils.rng import make_rng


def wired_router(technique):
    """Router 5 of a 4x4 network of *technique*, its channels attached."""
    noc = replace(technique.noc, width=4, height=4)
    config = SimulationConfig(technique=replace(technique, noc=noc), seed=1)
    return Network(config, Trace([])).routers[5]


class TestModeDrivesMfacs:
    def test_unknown_mode_rejected(self):
        """An id outside the table is refused before anything changes: the
        mode, the ECC scheme and every MFAC's function stay as they were."""
        router = wired_router(INTELLINOC)
        router.apply_mode(2, 0)
        functions = [c.function for c in router.mfacs]
        for mode in (-1, len(OPERATION_MODES), 9):
            with pytest.raises(ValueError):
                router.apply_mode(mode, 0)
            assert router.mode == 2
            assert router.scheme is OPERATION_MODES[2].scheme
            assert [c.function for c in router.mfacs] == functions

    def test_rejects_non_mfac_channels(self):
        """Only MFACs are driven: an IntelliNoC router's MFAC set holds MFACs
        only, and a CPD router's plain channels stay NORMAL in every mode."""
        router = wired_router(INTELLINOC)
        assert router.mfacs
        assert all(c.is_mfac for c in router.mfacs)
        plain = wired_router(CPD)
        assert plain.mfacs == ()
        for mode in range(len(OPERATION_MODES)):
            plain.apply_mode(mode, 0)
            assert all(
                c.function is ChannelFunction.NORMAL
                for c in plain.outgoing.values()
            )


def test_relaxed_mfac_implies_relaxed_source_every_cycle():
    """A channel runs RELAXED only while its source router runs relaxed
    timing, so the link error rate reads that one fact.  A random agent
    (epsilon 1, a decision every 100 cycles) visits all five modes on a
    loaded 4x4 IntelliNoC; the law holds on every cycle."""
    noc = replace(INTELLINOC.noc, width=4, height=4)
    technique = replace(INTELLINOC, noc=noc).with_rl(epsilon=1.0, time_step=100)
    trace = generate_synthetic_trace(
        SyntheticPattern.UNIFORM, noc.num_nodes, noc.width, 3000, 0.03,
        noc.flits_per_packet, make_rng(7, "relaxed-law"),
    )
    network = Network(SimulationConfig(technique=technique, seed=7), trace)
    mfacs = [c for c in network.channels if c.is_mfac]
    assert mfacs
    relaxed_hops = 0
    for _ in range(3000):
        network.step()
        for channel in mfacs:
            if channel.function is ChannelFunction.RELAXED:
                assert network.routers[channel.src].relaxed_timing, channel
                relaxed_hops += 1
    assert relaxed_hops
    assert {m for m, cycles in network.stats.mode_cycles.items() if cycles} == set(
        range(len(OPERATION_MODES))
    )
