"""Fast per-flit error sampling and decode-outcome envelopes.

The cycle-level simulator does not run bit-exact codecs on every flit hop —
for independent random bit errors, only the *number* of flipped bits in a
flit determines the decoder outcome class, so we sample that count and apply
each scheme's correct/detect envelope:

* CRC:    detects any 1..detect_bits errors end-to-end, corrects none.
* SECDED: corrects 1, detects 2, >=3 silently corrupts.
* DECTED: corrects <=2, detects 3, >=4 silently corrupts.

The bit-exact codecs in :mod:`repro.ecc.hamming` / :mod:`repro.ecc.dected`
validate these envelopes in the test suite.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.config import EccScheme


class DecodeOutcome(enum.Enum):
    """What happens to a flit at the receiving decoder."""

    CLEAN = "clean"  # no bit errors
    CORRECTED = "corrected"  # errors repaired in place
    RETRANSMIT = "retransmit"  # detected but uncorrectable -> NACK
    SILENT = "silent"  # errors beyond the detection envelope


# The members, bound once (see the note in `repro.noc.power_gating`).
OUTCOME_CLEAN = DecodeOutcome.CLEAN
OUTCOME_CORRECTED = DecodeOutcome.CORRECTED
OUTCOME_RETRANSMIT = DecodeOutcome.RETRANSMIT
OUTCOME_SILENT = DecodeOutcome.SILENT


def decode_outcome(scheme: EccScheme, num_bit_errors: int) -> DecodeOutcome:
    """Classify a flit with *num_bit_errors* flipped bits under *scheme*.

    For CRC the classification describes the end-to-end check at the
    destination; per-hop there is no check at all (handled by the caller).
    """
    if num_bit_errors < 0:
        raise ValueError("bit error count cannot be negative")
    if num_bit_errors == 0:
        return OUTCOME_CLEAN
    if num_bit_errors <= scheme.correct_bits:
        return OUTCOME_CORRECTED
    if num_bit_errors <= scheme.detect_bits:
        return OUTCOME_RETRANSMIT
    return OUTCOME_SILENT


#: Stage-1 uniforms :meth:`ErrorSampler.uniform` draws per refill, in one
#: ``Generator.random(n)`` call — float for float the stream n scalar
#: ``random()`` calls produce, at a sixteenth of the cost per float.
UNIFORM_BLOCK = 256


class ErrorSampler:
    """Samples the number of bit errors in an n-bit flit traversal.

    With per-bit error rate ``re`` the error count is Binomial(n, re); for
    the tiny rates of interest (1e-10 .. 1e-6) we use the standard two-stage
    speedup: first decide *whether* the flit is faulty at all via the exact
    probability ``p_fault = 1 - (1 - re)^n`` (Eq. 3 of the paper), drawing a
    single uniform, then only for faulty flits sample the positive-truncated
    binomial count.  The common case costs one uniform draw.

    Timing faults on wide links often upset several adjacent bits at once
    (crosstalk, droop — the motivation for DECTED and the 2D fault-coding
    work the paper cites); with probability *multi_bit_fraction* a faulty
    flit carries a burst of ``2 + Poisson(burst_extra_bits_mean)`` flips.

    Stage 1's uniforms are drawn :data:`UNIFORM_BLOCK` at a time
    (:meth:`uniform`), yet every draw — by this class or by whoever asks
    for :attr:`rng` — lands exactly where it would if each uniform were a
    scalar ``rng.random()``: same generator, same draws, same order.
    """

    def __init__(
        self,
        flit_bits: int,
        rng: np.random.Generator,
        multi_bit_fraction: float = 0.0,
        burst_extra_bits_mean: float = 0.0,
    ):
        if flit_bits < 1:
            raise ValueError("flits must carry at least one bit")
        if not 0.0 <= multi_bit_fraction <= 1.0:
            raise ValueError("multi-bit fraction must be a probability")
        if burst_extra_bits_mean < 0.0:
            raise ValueError("burst mean cannot be negative")
        self.flit_bits = flit_bits
        self.multi_bit_fraction = multi_bit_fraction
        self.burst_extra_bits_mean = burst_extra_bits_mean
        self._rng = rng
        # Uniforms drawn ahead by `uniform`, the next one last, and the
        # bit generator's state from just before they were drawn.
        self._block: list[float] = []
        self._state_at_fill: dict | None = None

    @property
    def rng(self) -> np.random.Generator:
        """The generator every draw comes from, positioned as if each
        :meth:`uniform` so far had been one scalar ``random()``.

        Uniforms drawn ahead but not yet handed out are undrawn first:
        the state saved at the fill is restored, the ones that *were*
        handed out are drawn again, and the block is dropped (the next
        :meth:`uniform` fills a fresh one from wherever the caller leaves
        the generator).  Works for any bit generator.
        """
        rng = self._rng
        if self._block:
            rng.bit_generator.state = self._state_at_fill
            rng.random(UNIFORM_BLOCK - len(self._block))
            self._block = []
        return rng

    def uniform(self) -> float:
        """The next uniform of the stream: the value ``rng.random()`` would
        return here, read from a block drawn :data:`UNIFORM_BLOCK` ahead."""
        try:
            return self._block.pop()
        except IndexError:  # spent (or dropped by `rng`): draw the next block
            rng = self._rng
            self._state_at_fill = rng.bit_generator.state
            block = self._block = rng.random(UNIFORM_BLOCK).tolist()
            block.reverse()
            return block.pop()

    def flit_fault_probability(self, bit_error_rate: float) -> float:
        """Eq. 3: P(faulty flit) = 1 - (1 - Re)^n."""
        if not 0.0 <= bit_error_rate <= 1.0:
            raise ValueError("bit error rate must be a probability")
        if bit_error_rate == 1.0:  # noqa: NOC302 -- guards log1p(-1); exact user-provided bound, not accumulated
            return 1.0
        return -math.expm1(self.flit_bits * math.log1p(-bit_error_rate))

    def sample_bit_errors(
        self, bit_error_rate: float, p_fault: float | None = None
    ) -> int:
        """Draw the number of flipped bits in one flit traversal.

        *p_fault* is :meth:`flit_fault_probability` of the same rate, for
        callers that sample one link many times between rate changes.
        """
        if bit_error_rate <= 0.0:
            return 0
        if p_fault is None:
            p_fault = self.flit_fault_probability(bit_error_rate)
        if self.uniform() >= p_fault:
            return 0
        return self.faulty_flit_errors(bit_error_rate)

    def faulty_flit_errors(self, bit_error_rate: float) -> int:
        """Stage 2 of :meth:`sample_bit_errors`: the (>= 1) flipped bits
        of a flit already drawn faulty.

        Either a multi-bit burst or independent flips (Binomial
        conditioned on >= 1, by rejection).  The rejection loop is costly
        at tiny rates: a draw is accepted with probability
        P(Binomial(n, re) >= 1) ~ n * re, so a flit takes about
        1 / (n * re) draws.  On the bench's ``torus_faults`` 259 faulty
        flits take this path for 48 598 draws (~20-30 ms, 3-4 % of the
        run).  It stays because any exact alternative (inverting the
        truncated distribution, say) draws other numbers and moves every
        digest.  The network takes stage 1 itself, per hop, from
        :meth:`uniform` against its memoised Eq. 3 probability.
        """
        rng = self.rng  # re-positioned: these draws follow stage 1's
        if self.multi_bit_fraction and rng.random() < self.multi_bit_fraction:
            burst = 2 + int(rng.poisson(self.burst_extra_bits_mean))
            return min(burst, self.flit_bits)
        while True:
            count = int(rng.binomial(self.flit_bits, bit_error_rate))
            if count >= 1:
                return min(count, self.flit_bits)
