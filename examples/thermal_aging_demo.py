"""Thermal and aging dynamics under a traffic hotspot.

Runs a hotspot workload on the SECDED baseline and on IntelliNoC and
shows the physics chain the paper's reward acts on:

    utilization -> power -> temperature -> timing errors & NBTI/HCI wear
                                          -> MTTF

printing the mesh temperature map and the per-router aging spread, and
how the stress-relaxing design flattens both.
"""

import numpy as np

from repro.config import INTELLINOC, SECDED_BASELINE, SimulationConfig
from repro.core.intellinoc import pretrain_agents
from repro.faults.mttf import MttfEstimator
from repro.noc.network import Network
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.utils.rng import make_rng

DURATION = 6000


def run(technique, policy=None):
    trace = generate_synthetic_trace(
        SyntheticPattern.HOTSPOT, 64, 8, DURATION, 0.012, 4,
        make_rng(21, "thermal-demo"), hotspots=(27, 28, 35, 36),  # center
    )
    net = Network(SimulationConfig(technique=technique, seed=21), trace, policy=policy)
    net.run_to_completion(DURATION * 3 + 20_000)
    return net


def temperature_map(net) -> str:
    lines = []
    for y in range(7, -1, -1):
        row = " ".join(
            f"{net.thermal.temperature(y * 8 + x) - 273.15:5.1f}"
            for x in range(8)
        )
        lines.append(row)
    return "\n".join(lines)


def report(label: str, net) -> None:
    aging = [net.aging.aging_factor(i) for i in range(64)]
    mttf = MttfEstimator(net.aging).system_mttf_seconds()
    print(f"\n=== {label} ===")
    print("temperature map (deg C, row 7 at top; hotspots at the center):")
    print(temperature_map(net))
    hottest, peak = net.thermal.hottest()
    print(f"hottest router: {hottest} at {peak - 273.15:.1f} C")
    print(f"aging factor: mean {np.mean(aging):.5f}, worst {np.max(aging):.5f}")
    print(f"extrapolated system MTTF: {mttf:.3e} s")
    print(f"retransmitted flits: {net.stats.total_retransmitted_flits}")


def main() -> None:
    baseline = run(SECDED_BASELINE)
    report("SECDED baseline", baseline)

    print("\npre-training IntelliNoC agents ...")
    master = pretrain_agents(INTELLINOC, duration=24_000, seed=21)
    ours = run(INTELLINOC, policy=master.deploy(INTELLINOC))
    report("IntelliNoC", ours)

    ratio = (
        MttfEstimator(ours.aging).system_mttf_seconds()
        / MttfEstimator(baseline.aging).system_mttf_seconds()
    )
    print(f"\nMTTF improvement: {ratio:.2f}x "
          f"(paper reports 1.77x on the PARSEC average)")


if __name__ == "__main__":
    main()
