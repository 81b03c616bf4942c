"""Adaptive error correction, bit by bit.

Demonstrates the three protection levels of the paper's adaptive ECC
hardware with the *bit-exact* codecs (not the simulator's sampled model):

* end-to-end CRC — detects, cannot correct;
* SECDED (extended Hamming (72, 64)) — corrects 1, detects 2;
* DECTED (shortened BCH (79, 64) + parity) — corrects 2, detects 3;

then walks Section 4's operation-mode table, whose ECC column is the
hardware's activation level, with what each level costs a flit hop
(latency, energy) and the router in leakage.
"""

from repro.config import INTELLINOC, OPERATION_MODES, PowerConfig
from repro.ecc.crc import CRC16
from repro.ecc.dected import DectedCodec
from repro.ecc.hamming import SecdedCodec
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


def demo_mode_table() -> None:
    model = PowerModel(INTELLINOC, PowerConfig())
    rows = []
    for mode, record in enumerate(OPERATION_MODES):
        scheme = record.scheme
        rows.append([
            mode,
            scheme.value.upper(),
            "gated, bypass" if record.gated else "relaxed" if record.relaxed else "",
            scheme.hop_latency,
            model.hop_energy_pj(scheme, via_bypass=record.gated),
            model.ecc_leakage_mw(scheme),
        ])
    print(format_table(
        ["mode", "ECC level", "router", "codec cycles/hop", "hop pJ", "ECC leakage mW"],
        rows,
        title="Adaptive ECC hardware: the activation level of each operation mode",
    ))


if __name__ == "__main__":
    demo_codecs()
    demo_mode_table()
