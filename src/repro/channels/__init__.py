"""Inter-router channels: plain wires, iDEAL-style channel buffers, MFACs.

* :mod:`repro.channels.mfac` — the channel datapath model, covering all
  four MFAC functions (transmission, link storage, re-transmission buffer,
  relaxed timing) plus the plain-wire and iDEAL configurations used by the
  baselines.  A router sets its outgoing MFACs' function from its operation
  mode (`repro.config.OPERATION_MODES`, in `Router.apply_mode`).
"""

from repro.channels.mfac import Channel, ChannelFunction

__all__ = ["Channel", "ChannelFunction"]
