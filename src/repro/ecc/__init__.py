"""Error-control coding for NoC flits.

Bit-exact codecs, imported from their own modules (examples and tests run
them, and validate the envelopes against them; a simulation loads none):

* :mod:`repro.ecc.crc` — table-driven CRC-8/16/32.
* :mod:`repro.ecc.hamming` — extended Hamming (72, 64) SECDED.
* :mod:`repro.ecc.dected` — shortened BCH (79, 64) + parity DECTED.

Simulation-speed model:

* :mod:`repro.ecc.outcomes` — per-flit error sampling plus the
  correct/detect envelope of each scheme (mathematically equivalent for
  independent random bit errors, far faster than bit-exact decoding).

The adaptive hardware's activation level (CRC only / SECDED / DECTED) is
the operation mode's scheme, `repro.config.OPERATION_MODES`, which
`repro.noc.router.Router.apply_mode` activates.
"""

from repro.ecc.outcomes import DecodeOutcome, ErrorSampler, decode_outcome

__all__ = [
    "DecodeOutcome",
    "ErrorSampler",
    "decode_outcome",
]
