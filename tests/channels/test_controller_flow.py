"""Tests for the MFAC controller."""

import pytest

from repro.channels.controller import MfacController
from repro.channels.mfac import Channel, ChannelFunction
from repro.noc.routing import Direction


def mfac(direction=Direction.EAST):
    return Channel(
        0, direction, 1, buffer_depth=8, links=2, link_latency=1, is_mfac=True
    )


class TestMfacController:
    def test_mode_function_pairing(self):
        """Section 4: modes 0/1 -> storage, 2/3 -> retransmission, 4 -> relaxed."""
        ctrl = MfacController([mfac()])
        assert ctrl.apply_mode(0) is ChannelFunction.NORMAL
        assert ctrl.apply_mode(1) is ChannelFunction.NORMAL
        assert ctrl.apply_mode(2) is ChannelFunction.RETRANSMISSION
        assert ctrl.apply_mode(3) is ChannelFunction.RETRANSMISSION
        assert ctrl.apply_mode(4) is ChannelFunction.RELAXED

    def test_configures_all_channels(self):
        channels = [mfac(Direction.EAST), mfac(Direction.NORTH)]
        ctrl = MfacController(channels)
        ctrl.apply_mode(3)
        assert all(c.function is ChannelFunction.RETRANSMISSION for c in channels)

    def test_counts_real_reconfigurations_only(self):
        ctrl = MfacController([mfac()])
        ctrl.apply_mode(2)
        ctrl.apply_mode(3)  # same function, no reconfiguration
        ctrl.apply_mode(4)
        assert ctrl.reconfigurations == 2

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            MfacController([mfac()]).apply_mode(9)

    def test_rejects_non_mfac_channels(self):
        wire = Channel(0, Direction.EAST, 1, buffer_depth=0)
        with pytest.raises(ValueError):
            MfacController([wire])
