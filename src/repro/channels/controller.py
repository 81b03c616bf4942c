"""MFAC function-select controller (Fig. 2/3).

The controller maps the router's current operation mode onto the channel
function of every outgoing MFAC — the mode/function pairing of Section 4:

* mode 0 (stress-relaxing bypass) and mode 1 (CRC only) configure the
  MFACs as storage buffers,
* modes 2/3 (SECDED/DECTED) configure them as re-transmission buffers,
* mode 4 configures them as relaxed-timing buffers.
"""

from __future__ import annotations

from repro.channels.mfac import Channel, ChannelFunction

_MODE_TO_FUNCTION = {
    0: ChannelFunction.NORMAL,
    1: ChannelFunction.NORMAL,
    2: ChannelFunction.RETRANSMISSION,
    3: ChannelFunction.RETRANSMISSION,
    4: ChannelFunction.RELAXED,
}


class MfacController:
    """Per-router controller for its outgoing MFACs."""

    def __init__(self, channels: list[Channel]):
        for channel in channels:
            if not channel.is_mfac:
                raise ValueError("MfacController only drives MFAC channels")
        self.channels = channels
        self.reconfigurations = 0

    def apply_mode(self, mode: int) -> ChannelFunction:
        """Configure all outgoing MFACs for operation *mode*."""
        try:
            function = _MODE_TO_FUNCTION[mode]
        except KeyError:
            raise ValueError(f"unknown operation mode {mode}") from None
        for channel in self.channels:
            if channel.function is not function:
                self.reconfigurations += 1
            channel.set_function(function)
        return function
