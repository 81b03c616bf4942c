"""Inter-router channels: plain wires, iDEAL-style channel buffers, MFACs.

* :mod:`repro.channels.mfac` — the channel datapath model, covering all
  four MFAC functions (transmission, link storage, re-transmission buffer,
  relaxed timing) plus the plain-wire and iDEAL configurations used by the
  baselines.
* :mod:`repro.channels.controller` — the MFAC function-select controller.
"""

from repro.channels.controller import MfacController
from repro.channels.mfac import Channel, ChannelFunction

__all__ = ["Channel", "ChannelFunction", "MfacController"]
