"""Load-latency study on classic synthetic traffic patterns.

Standard NoC methodology: sweep the injection rate under uniform /
transpose / hotspot traffic and print the load-latency curve for the
SECDED baseline and IntelliNoC, exposing each pattern's saturation point.
A curve is a list of ``synthetic_cell`` specs, one per operating point,
run by the campaign engine like any other cells (two worker processes
here).  Demonstrates the simulator as a general-purpose NoC tool beyond
the paper's PARSEC campaign.
"""

from repro.config import FaultConfig, INTELLINOC, SECDED_BASELINE
from repro.exec.engine import EngineOptions
from repro.exec.spec import synthetic_cell
from repro.utils.tables import format_table

DURATION = 2000
RATES = (0.005, 0.015, 0.035)
PATTERNS = ("uniform", "transpose", "hotspot")
TECHNIQUES = (SECDED_BASELINE, INTELLINOC)


def main() -> None:
    points = [(p, r, t) for p in PATTERNS for r in RATES for t in TECHNIQUES]
    specs = [
        synthetic_cell(
            technique, pattern, DURATION, rate, packet_size=4, seed=9,
            faults=FaultConfig(base_bit_error_rate=1e-7),
            hotspots=(0, 7, 56, 63), max_cycles=DURATION * 3 + 10_000,
        )
        for pattern, rate, technique in points
    ]
    metrics = EngineOptions(jobs=2).run_specs(specs).metrics
    latency = {
        (pattern, rate, technique.name):
            m.latency.mean if m.latency.count else float("nan")
        for (pattern, rate, technique), m in zip(points, metrics)
    }
    for pattern in PATTERNS:
        rows = []
        for rate in RATES:
            base = latency[pattern, rate, SECDED_BASELINE.name]
            ours = latency[pattern, rate, INTELLINOC.name]
            rows.append([f"{rate:.3f}", base, ours, base / ours])
        print()
        print(format_table(
            ["inj. rate (pkt/node/cyc)", "SECDED latency", "IntelliNoC latency",
             "speed ratio"],
            rows,
            title=f"Load-latency: {pattern} traffic",
        ))


if __name__ == "__main__":
    main()
