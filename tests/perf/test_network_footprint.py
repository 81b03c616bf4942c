"""Deterministic memory counter for a built network.

Every cell builds a ``Network`` before its first cycle, and what the build
allocates stays resident for the whole run.  Peak RSS on a shared host is
noisy; the bytes ``tracemalloc`` sees the build retain are not.  This test
holds them, per router, under a budget, so a change that brings back a
heavyweight container per FIFO (an empty ``deque`` is 760 bytes, an empty
list 56, and an 8x8 mesh has 1 728 FIFOs) fails here without a stopwatch.
"""

import tracemalloc

from repro.config import INTELLINOC, SimulationConfig
from repro.noc.network import Network
from repro.traffic.parsec import generate_parsec_trace

#: Bytes the build below may retain per router.  Measured when the budget
#: was set (CPython 3.11, numpy 2): 22 604 as a process's first build, 20 323
#: for a second one; with a ``deque`` per VC and channel FIFO, 41 553 and
#: 39 331.
BYTES_PER_ROUTER_BUDGET = 28_000


def test_an_8x8_mesh_retains_under_budget_bytes_per_router():
    noc = INTELLINOC.noc
    trace = generate_parsec_trace("bod", noc.width, noc.height, 1000, noc.flits_per_packet, 7)
    config = SimulationConfig(technique=INTELLINOC, seed=7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        network = Network(config, trace)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    routers = len(network.routers)
    assert routers == 64
    assert retained / routers < BYTES_PER_ROUTER_BUDGET, (retained, routers)
