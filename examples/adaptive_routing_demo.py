"""Adaptive routing extension: spreading load and surviving dead routers.

Compares deterministic X-Y against the west-first turn model (with
congestion-aware output selection) on a convergent workload, then kills a
router on the dimension-ordered path with a `RouterFailure` scenario event
and shows traffic flowing around it — the permanent-fault response the
paper's related work (Vicis, Ariadne, QORE) builds on.
"""

from dataclasses import replace

from repro.config import FaultConfig, SECDED_BASELINE, SimulationConfig
from repro.faults.scenario import FaultScenario, RouterFailure
from repro.noc.network import Network
from repro.traffic.analysis import render_heatmap
from repro.traffic.trace import Trace, TraceEvent
from repro.utils.tables import format_table

import numpy as np

NO_FAULTS = FaultConfig(base_bit_error_rate=0.0)


def run(routing: str, events, dead_router: int | None = None):
    technique = replace(
        SECDED_BASELINE, noc=replace(SECDED_BASELINE.noc, routing=routing)
    )
    scenario = None
    if dead_router is not None:
        scenario = FaultScenario(
            name="kill", events=(RouterFailure(cycle=0, router=dead_router),)
        )
    net = Network(
        SimulationConfig(technique=technique, seed=17, faults=NO_FAULTS),
        Trace(list(events)),
        scenario=scenario,
    )
    net.run_to_completion(30_000)
    return net


def utilization_grid(net):
    grid = np.zeros((8, 8), dtype=np.int64)
    for rid, ctr in enumerate(net.stats.routers):
        grid[rid // 8, rid % 8] = sum(ctr.in_flits)
    return grid


def main() -> None:
    # Convergent north-east flows: 0 -> 27 hammers the row-0 path under XY.
    events = [TraceEvent(i, 0, 27, 4) for i in range(0, 900, 2)]

    rows = []
    nets = {}
    for routing in ("xy", "west_first"):
        net = run(routing, events)
        nets[routing] = net
        used = sum(1 for c in net.stats.routers if sum(c.in_flits) > 0)
        rows.append([routing, net.stats.average_latency, used,
                     net.stats.packets_completed])
    print(format_table(
        ["routing", "avg latency", "routers used", "delivered"],
        rows,
        title="Convergent flow 0 -> 27: deterministic vs adaptive routing",
    ))
    print("\nrouter utilization (west_first) — load spread over the quadrant:")
    print(render_heatmap(utilization_grid(nets["west_first"])))

    print("\nNow kill router 1 (on the XY path) and re-run west-first:")
    survivor = run("west_first", [TraceEvent(i * 10, 0, 18, 4) for i in range(30)],
                   dead_router=1)
    print(f"delivered {survivor.stats.packets_completed}/30 packets around the "
          f"failed router (router 8 carried "
          f"{sum(survivor.stats.routers[8].in_flits)} flits)")


if __name__ == "__main__":
    main()
