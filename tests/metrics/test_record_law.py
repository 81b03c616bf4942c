"""Law: a run's record is plain JSON scalars, and its JSON text is the record.

`RunMetrics` travels as a worker payload, as a result-store artifact and
as the bench's digest, all through `to_dict` / `from_dict`.  Real cells of
three techniques, on a mesh and on a torus losing links, must summarise to
leaves of exactly `int`, `float` or `str` (a numpy scalar would print and
hash differently), and their JSON round trip must give back an equal
record with the same leaf types.
"""

import json
from dataclasses import fields, is_dataclass, replace

import pytest

from repro.config import CPD, INTELLINOC, SECDED_BASELINE, SimulationConfig
from repro.metrics.summary import RunMetrics, run_to_metrics
from repro.noc.network import Network
from repro.traffic.patterns import SyntheticPattern, generate_synthetic_trace
from repro.utils.rng import make_rng

CASES = [
    (technique, topology, scenario)
    for technique in (SECDED_BASELINE, CPD, INTELLINOC)
    for topology, scenario in (("mesh", ""), ("torus", "link-rot"))
]


def leaves(value, path="metrics"):
    """Every scalar of a record, dataclasses and dicts walked, with its path."""
    if is_dataclass(value):
        for f in fields(value):
            yield from leaves(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield f"{path}[{key!r}]", key
            yield from leaves(item, f"{path}[{key!r}]")
    else:
        yield path, value


@pytest.fixture(scope="module", params=CASES,
                ids=[f"{t.name}-{top}" for t, top, _ in CASES])
def metrics(request):
    technique, topology, scenario = request.param
    noc = replace(
        technique.noc, width=4, height=4, topology=topology,
        fault_scenario=scenario,
    )
    trace = generate_synthetic_trace(
        SyntheticPattern.UNIFORM, noc.num_nodes, noc.width, 2400, 0.03,
        noc.flits_per_packet, make_rng(7, "record-law"),
    )
    config = SimulationConfig(technique=replace(technique, noc=noc), seed=7)
    return run_to_metrics(Network(config, trace))


def test_every_leaf_is_a_plain_scalar(metrics):
    bad = [
        f"{path}: {type(value).__name__}"
        for path, value in leaves(metrics)
        if type(value) not in (int, float, str)
    ]
    assert not bad, bad


def test_the_json_round_trip_is_the_record(metrics):
    restored = RunMetrics.from_dict(json.loads(json.dumps(metrics.to_dict())))
    assert restored == metrics
    assert [(p, type(v)) for p, v in leaves(restored)] == [
        (p, type(v)) for p, v in leaves(metrics)
    ]
