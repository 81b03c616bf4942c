"""What a simulation process loads: the simulator, and nothing it does not run.

Every campaign cell, bench child and sweep point is a process that pays for
its modules in start-up time and resident memory.  Five never run in a
simulation: the process pool (``multiprocessing`` and
``concurrent.futures.process``, needed only at ``--jobs N > 1``), numpy's
masked arrays (which ``np.percentile`` loads to ask whether a list is
masked), the lint engine (which the CLI's parser once loaded to define
the ``lint`` subcommand) and the paper table (``repro.report``, which
only ``verify-paper`` and ``sweep`` load; the grid it measures lives in
``repro.core.experiment``).  Each probe runs in a fresh interpreter, since
this one has long since loaded all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).parents[1])

#: Modules a run must not load.
FORBIDDEN = (
    "multiprocessing",
    "concurrent.futures.process",
    "numpy.ma",
    "repro.analysis.lint",
    "repro.report",
)

_REPORT = (
    "import json, sys; "
    f"print(json.dumps(sorted(m for m in {FORBIDDEN!r} if m in sys.modules)))"
)

#: A 4x4 mesh built, run to completion and summarised, as a cell does.
_NETWORK_RUN = """
from dataclasses import replace
from repro.config import INTELLINOC, SimulationConfig
from repro.metrics.summary import RunMetrics
from repro.noc.network import Network
from repro.traffic.parsec import generate_parsec_trace

technique = replace(INTELLINOC, noc=replace(INTELLINOC.noc, width=4, height=4))
trace = generate_parsec_trace("bod", 4, 4, 300, technique.noc.flits_per_packet, 7)
network = Network(SimulationConfig(technique=technique, seed=7), trace)
network.run_to_completion(5_000)
assert RunMetrics.from_network(network).packets_completed > 0
"""

#: ``python -m repro run --duration 300``, in process so the probe can
#: look at ``sys.modules`` when it returns.
_CLI_RUN = """
import contextlib, io
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", "--duration", "300"]) == 0
"""


def _loaded_forbidden(body: str, tmp_path: Path) -> list[str]:
    env = {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONPATH": SRC,
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
    }
    out = subprocess.run(
        [sys.executable, "-c", body + "\n" + _REPORT],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("body", [_NETWORK_RUN, _CLI_RUN], ids=["network", "cli-run"])
def test_a_run_loads_no_pool_masked_array_or_linter(body, tmp_path):
    assert _loaded_forbidden(body, tmp_path) == []
