"""Per-router adaptive error-correction hardware (Section 3.2, Fig. 5).

One :class:`AdaptiveEccUnit` per router models the three activation levels
of the paper's adaptive hardware:

* fully power-gated -> end-to-end CRC only,
* partially enabled -> per-hop SECDED,
* fully enabled     -> per-hop DECTED,

and exposes what a flit hop needs of the active scheme as plain
attributes (``per_hop``, ``hop_latency``, ``codec_pj``).  The leakage of the
powered circuitry is the power model's (`PowerModel.ecc_leakage_mw`).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.config import ECC_DECTED, ECC_NONE, ECC_SECDED, EccScheme, PowerConfig


class AdaptiveEccUnit:
    """Runtime ECC configuration of one router's ports."""

    def __init__(
        self,
        power: PowerConfig,
        initial: EccScheme = ECC_SECDED,
        on_transition: Callable[[EccScheme, EccScheme], None] | None = None,
    ):
        self._power = power
        self.transitions = 0  # number of runtime reconfigurations
        # Observation hook invoked as on_transition(old, new) after each
        # actual reconfiguration (telemetry attaches here; must not mutate).
        self.on_transition = on_transition
        self._set_scheme(initial)

    @property
    def scheme(self) -> EccScheme:
        return self._scheme

    def _set_scheme(self, scheme: EccScheme) -> None:
        """The one place the scheme is written.  What a flit hop needs of
        it is worked out here, once per reconfiguration, and read per flit
        as plain attributes:

        * ``per_hop`` — errors are handled hop by hop (SECDED / DECTED);
        * ``hop_latency`` — encode + decode pipeline cycles a hop pays (one
          each side for SECDED; DECTED's two-stage decoder adds one more);
          eliminating it is the CRC-only mode's latency win;
        * ``codec_pj`` — encode + decode energy of one flit hop (CRC is
          checked once end to end, not per hop).
        """
        self._scheme = scheme
        self.per_hop = scheme.per_hop
        if scheme is ECC_SECDED:
            self.hop_latency = 2
            self.codec_pj = self._power.secded_codec_pj
        elif scheme is ECC_DECTED:
            self.hop_latency = 3
            self.codec_pj = self._power.dected_codec_pj
        else:
            self.hop_latency = 0
            self.codec_pj = 0.0

    def configure(self, scheme: EccScheme) -> None:
        """Switch the hardware to *scheme* (synchronized with the upstream
        encoder by the mode-exchange protocol of Section 4)."""
        if scheme is ECC_NONE:
            raise ValueError("the adaptive unit always retains at least CRC")
        if scheme is not self._scheme:
            old = self._scheme
            self.transitions += 1
            self._set_scheme(scheme)
            if self.on_transition is not None:
                self.on_transition(old, scheme)

    def __repr__(self) -> str:
        return f"AdaptiveEccUnit(scheme={self._scheme.value})"
