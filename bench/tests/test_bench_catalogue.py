"""BENCHMARK.json and the code name exactly the same metrics and workloads."""

from __future__ import annotations

import re

import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Per-layer metrics the parent derives from the repeats, not a child.
PARENT_LAYERS = {"proc.wall_iqr_s", "proc.wall_min_s", "noc.trace_overhead_ratio"}


def test_names_units_and_limits(spec):
    groups = [spec["workloads"], spec["end_to_end"], spec["per_layer"]]
    for group, (low, high) in zip(groups, [(2, 8), (1, 16), (1, 128)]):
        assert low <= len(group) <= high
    names = [entry["name"] for group in groups for entry in group]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert spec["paths"] == ["bench"]


def test_workloads_match_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


#: End-to-end metrics the parent derives from a run's repeats, not a child.
PARENT_END_TO_END = {"wall_ref_s", "sim_cycles_per_ref_s"}


def test_every_repeat_emits_every_end_to_end_metric(spec, small_records):
    wanted = {m["name"] for m in spec["end_to_end"]}
    for records in small_records.values():
        for record in records:
            assert set(record["end_to_end"]) | PARENT_END_TO_END == wanted
            assert all(value > 0 for value in record["end_to_end"].values())


def test_per_layer_metrics_are_exactly_the_ones_emitted(spec, small_records):
    emitted = set(PARENT_LAYERS)
    for records in small_records.values():
        for record in records:
            emitted |= set(record["layers"])
    assert emitted == {m["name"] for m in spec["per_layer"]}


def test_small_workloads_pass_their_own_checks(small_records):
    for name, records in small_records.items():
        for record in records:
            assert all(record["checks"].values()), (name, record["checks"])
        traced, untraced = records
        assert traced["sim_digest"] == untraced["sim_digest"]
    assert small_records["parsec_light"][0]["checks"]["sanitizer_clean"]
    assert small_records["torus_faults"][1]["checks"]["scenario_fired"]

