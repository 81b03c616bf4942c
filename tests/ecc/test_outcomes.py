"""Tests for the sampled error model and decode envelopes."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import EccScheme
from repro.ecc.dected import DectedCodec
from repro.ecc.hamming import SecdedCodec
from repro.ecc.outcomes import DecodeOutcome, ErrorSampler, decode_outcome


class TestDecodeOutcome:
    @pytest.mark.parametrize(
        "scheme,errors,expected",
        [
            (EccScheme.SECDED, 0, DecodeOutcome.CLEAN),
            (EccScheme.SECDED, 1, DecodeOutcome.CORRECTED),
            (EccScheme.SECDED, 2, DecodeOutcome.RETRANSMIT),
            (EccScheme.SECDED, 3, DecodeOutcome.SILENT),
            (EccScheme.DECTED, 1, DecodeOutcome.CORRECTED),
            (EccScheme.DECTED, 2, DecodeOutcome.CORRECTED),
            (EccScheme.DECTED, 3, DecodeOutcome.RETRANSMIT),
            (EccScheme.DECTED, 4, DecodeOutcome.SILENT),
            (EccScheme.CRC, 1, DecodeOutcome.RETRANSMIT),
            (EccScheme.CRC, 8, DecodeOutcome.RETRANSMIT),
            (EccScheme.CRC, 9, DecodeOutcome.SILENT),
            (EccScheme.NONE, 1, DecodeOutcome.SILENT),
        ],
    )
    def test_envelopes(self, scheme, errors, expected):
        assert decode_outcome(scheme, errors) is expected

    def test_negative_errors_rejected(self):
        with pytest.raises(ValueError):
            decode_outcome(EccScheme.SECDED, -1)

    def test_envelope_matches_bitexact_secded(self):
        """The sampled envelope agrees with the real codec for 0..2 flips."""
        codec = SecdedCodec(64)
        cw = codec.encode(0xABCDEF)
        assert decode_outcome(EccScheme.SECDED, 0) is DecodeOutcome.CLEAN
        r1 = codec.decode(cw ^ (1 << 5))
        assert r1.corrected == (decode_outcome(EccScheme.SECDED, 1) is DecodeOutcome.CORRECTED)
        r2 = codec.decode(cw ^ 0b11)
        assert r2.detected_uncorrectable == (
            decode_outcome(EccScheme.SECDED, 2) is DecodeOutcome.RETRANSMIT
        )

    def test_envelope_matches_bitexact_dected(self):
        codec = DectedCodec(64)
        cw = codec.encode(0xABCDEF)
        r2 = codec.decode(cw ^ (1 << 3) ^ (1 << 40))
        assert not r2.detected_uncorrectable  # corrected
        r3 = codec.decode(cw ^ 0b111)
        assert r3.detected_uncorrectable  # detected -> retransmit


class TestErrorSampler:
    def test_eq3_fault_probability(self):
        sampler = ErrorSampler(128, np.random.default_rng(0))
        re = 1e-6
        expected = 1 - (1 - re) ** 128
        assert sampler.flit_fault_probability(re) == pytest.approx(expected, rel=1e-9)

    def test_zero_rate_never_faults(self):
        sampler = ErrorSampler(128, np.random.default_rng(0))
        assert all(sampler.sample_bit_errors(0.0) == 0 for _ in range(100))

    def test_fault_rate_statistics(self):
        sampler = ErrorSampler(128, np.random.default_rng(1))
        re = 1e-3
        p = sampler.flit_fault_probability(re)
        n = 20_000
        faults = sum(1 for _ in range(n) if sampler.sample_bit_errors(re) > 0)
        # Three-sigma binomial bound.
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(faults - n * p) < 4 * sigma

    def test_memoised_fault_probability_draws_the_same_sequence(self):
        """Passing Eq. 3's value in (the network memoises it per link)
        changes neither the outcomes nor the number of RNG draws."""
        re = 2e-3
        plain = ErrorSampler(128, np.random.default_rng(5), multi_bit_fraction=0.3,
                             burst_extra_bits_mean=1.0)
        memo = ErrorSampler(128, np.random.default_rng(5), multi_bit_fraction=0.3,
                            burst_extra_bits_mean=1.0)
        p_fault = memo.flit_fault_probability(re)
        draws = [plain.sample_bit_errors(re) for _ in range(5_000)]
        assert [memo.sample_bit_errors(re, p_fault) for _ in range(5_000)] == draws
        assert any(draws)
        assert plain.rng.random() == memo.rng.random()  # streams in step

    def test_burst_mode_produces_multibit(self):
        sampler = ErrorSampler(
            128, np.random.default_rng(2), multi_bit_fraction=1.0, burst_extra_bits_mean=1.0
        )
        draws = [sampler.sample_bit_errors(0.5) for _ in range(200)]
        positive = [d for d in draws if d > 0]
        assert positive and all(d >= 2 for d in positive)

    def test_burst_capped_at_flit_width(self):
        sampler = ErrorSampler(
            4, np.random.default_rng(3), multi_bit_fraction=1.0, burst_extra_bits_mean=50
        )
        draws = [sampler.sample_bit_errors(0.9) for _ in range(50)]
        assert max(draws) <= 4

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_fault_probability_is_probability(self, re):
        sampler = ErrorSampler(64, np.random.default_rng(0))
        p = sampler.flit_fault_probability(re)
        assert 0.0 <= p <= 1.0

    def test_invalid_rate_rejected(self):
        sampler = ErrorSampler(64, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sampler.flit_fault_probability(1.5)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ErrorSampler(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ErrorSampler(8, np.random.default_rng(0), multi_bit_fraction=2.0)
        with pytest.raises(ValueError):
            ErrorSampler(8, np.random.default_rng(0), burst_extra_bits_mean=-1.0)
