"""Load laws: what any load-latency curve of the mesh must show.

A curve is a list of ``synthetic_cell`` specs, one per offered load, run
like any other cell (README, "Load-latency curves").  These laws run a
handful of such points on a 4x4 mesh with ``execute_cell`` directly, at
zero bit-error rate so only congestion moves latency.  Measured at seed 6:

=========  =======  ============  ========================
pattern    offered  mean latency  accepted / node / cycle
=========  =======  ============  ========================
uniform    0.005    20.1          0.0041
uniform    0.02     19.2          0.0193
uniform    0.05     19.5          0.0453
uniform    0.1      24.1          0.0969
uniform    0.2      121.3         0.1336
hotspot    0.005    21.8          0.0049
hotspot    0.1      238.5         0.0553
=========  =======  ============  ========================
"""

from dataclasses import replace
from functools import cache

import pytest

from repro.config import FaultConfig, SECDED_BASELINE
from repro.exec.spec import synthetic_cell
from repro.exec.worker import execute_cell
from repro.metrics.summary import RunMetrics

MESH_4X4 = replace(
    SECDED_BASELINE, noc=replace(SECDED_BASELINE.noc, width=4, height=4)
)
CORNERS = (0, 3, 12, 15)
ZERO_LOAD = 0.005
#: Latency past this multiple of the zero-load latency reads as saturated.
SATURATION_FACTOR = 3.0


@cache
def point(pattern: str, rate: float) -> RunMetrics:
    """One operating point; the laws share the points they both need."""
    return execute_cell(synthetic_cell(
        MESH_4X4, pattern, 600, rate, packet_size=4, seed=6,
        faults=FaultConfig(base_bit_error_rate=0.0), hotspots=CORNERS,
        max_cycles=3600,
    ))


def test_latency_is_monotone_in_offered_load():
    # 0.005 is left out: at zero load the curve is flat, and 0.005 -> 0.02
    # dips by 0.9 cycles of sampling noise.
    latencies = [point("uniform", r).latency.mean for r in (0.02, 0.05, 0.1, 0.2)]
    assert all(a < b for a, b in zip(latencies, latencies[1:])), latencies


def test_hotspot_traffic_saturates_before_uniform():
    rate = 0.1
    uniform = point("uniform", rate).latency.mean
    hotspot = point("hotspot", rate).latency.mean
    assert uniform < SATURATION_FACTOR * point("uniform", ZERO_LOAD).latency.mean
    assert hotspot > SATURATION_FACTOR * point("hotspot", ZERO_LOAD).latency.mean


@pytest.mark.parametrize("rate", [0.02, 0.05])
def test_accepted_throughput_tracks_offered_load_below_saturation(rate):
    metrics = point("uniform", rate)
    assert metrics.packets_completed == metrics.packets_injected
    accepted = metrics.packets_completed / (
        metrics.execution_cycles * MESH_4X4.noc.num_nodes
    )
    assert accepted == pytest.approx(rate, rel=0.10)
