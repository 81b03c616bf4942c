"""Adaptive error correction, bit by bit.

Demonstrates the three protection levels of the paper's adaptive ECC
hardware with the *bit-exact* codecs (not the simulator's sampled model):

* end-to-end CRC — detects, cannot correct;
* SECDED (extended Hamming (72, 64)) — corrects 1, detects 2;
* DECTED (shortened BCH (79, 64) + parity) — corrects 2, detects 3;

then shows the AdaptiveEccUnit switching levels as the observed error rate
ramps, with the associated energy/leakage trade-off.
"""

import numpy as np

from repro.config import INTELLINOC, EccScheme, PowerConfig
from repro.ecc import CRC16, AdaptiveEccUnit, DectedCodec, SecdedCodec
from repro.power.model import PowerModel
from repro.utils.tables import format_table


def flip(word: int, *positions: int) -> int:
    for p in positions:
        word ^= 1 << p
    return word


def demo_codecs() -> None:
    data = 0xC0FFEE15_600DF00D
    print(f"payload word: 0x{data:016X}\n")

    crc = CRC16.compute_int(data, 64)
    corrupted = flip(data, 7)
    print("CRC16    :", "detects 1-bit error ->",
          CRC16.compute_int(corrupted, 64) != crc)

    secded = SecdedCodec(64)
    cw = secded.encode(data)
    r1 = secded.decode(flip(cw, 13))
    r2 = secded.decode(flip(cw, 13, 44))
    print(f"SECDED   : 1-bit flip corrected={r1.corrected} "
          f"(data intact: {r1.data == data}); "
          f"2-bit flip detected={r2.detected_uncorrectable}")

    dected = DectedCodec(64)
    cw = dected.encode(data)
    r2 = dected.decode(flip(cw, 5, 61))
    r3 = dected.decode(flip(cw, 5, 33, 61))
    print(f"DECTED   : 2-bit flip corrected={r2.corrected_bits == 2} "
          f"(data intact: {r2.data == data}); "
          f"3-bit flip detected={r3.detected_uncorrectable}")
    print(f"overheads: SECDED +{secded.overhead_bits} bits, "
          f"DECTED +{dected.overhead_bits} bits per 64-bit word\n")


def demo_adaptive_unit() -> None:
    unit = AdaptiveEccUnit(PowerConfig(), EccScheme.CRC)
    model = PowerModel(INTELLINOC, PowerConfig())
    rng = np.random.default_rng(7)
    rows = []
    # Ramp the observed per-flit error probability like a heating router.
    for error_rate in (1e-8, 1e-6, 5e-5, 2e-3):
        # A simple deployment rule, mirroring CPD's heuristic.
        if error_rate < 1e-7:
            unit.configure(EccScheme.CRC)
        elif error_rate < 1e-4:
            unit.configure(EccScheme.SECDED)
        else:
            unit.configure(EccScheme.DECTED)
        rows.append([
            f"{error_rate:.0e}",
            unit.scheme.value.upper(),
            unit.codec_pj,
            model.ecc_leakage_mw(unit.scheme),
        ])
    print(format_table(
        ["flit error rate", "active scheme", "codec pJ/hop", "leakage mW"],
        rows,
        title="Adaptive ECC unit: protection level vs observed error rate",
    ))
    print(f"\nruntime reconfigurations performed: {unit.transitions}")


if __name__ == "__main__":
    demo_codecs()
    demo_adaptive_unit()
