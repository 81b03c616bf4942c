"""Make ``bench/`` (flat modules) and ``src/`` importable, and build one
small instance of every workload for the tests to share."""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import child  # noqa: E402 -- needs the path set above
import run  # noqa: E402 -- needs the path set above
import workloads  # noqa: E402 -- needs the path set above

#: Small sizes, passed as function arguments.  torus_faults still has to
#: reach its fault burst (from cycle 500) to pass its own check.
SMALL = {
    "parsec_light": {"duration": 300},
    "uniform_sat": {"duration": 100},
    "torus_faults": {"duration": 900},
    "campaign_fig": {
        "benchmarks": ("swa",), "duration": 300,
        "pretrain_cycles": 1000, "warm_replays": 3,
    },
}


@pytest.fixture(scope="session")
def spec():
    return run.load_spec()


@pytest.fixture(scope="session")
def small_records(tmp_path_factory):
    """workload -> [traced record, untraced record], through child.run_repeat."""
    patch = pytest.MonkeyPatch()
    for name, sizes in SMALL.items():
        patch.setitem(
            workloads.WORKLOADS, name,
            functools.partial(workloads.WORKLOADS[name], **sizes),
        )
    records = {}
    try:
        for name in SMALL:
            records[name] = [
                child.run_repeat(
                    name, 7, traced, repeat,
                    tmp_path_factory.mktemp(f"{name}-{repeat}"), time.monotonic(),
                )
                for repeat, traced in enumerate((True, False))
            ]
    finally:
        patch.undo()
    return records
