"""Operations, checks, noise self-report and exit codes of the parent."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest
import run


def scaled(record, factor):
    """A repeat whose host-time numbers are *factor* times the original's."""
    clone = copy.deepcopy(record)
    clone["end_to_end"]["setup_s"] *= factor
    clone["layers"]["proc.wall_s"] *= factor
    return clone


def test_a_perturbed_repeat_trips_the_digest_check(spec, small_records):
    _, untraced = small_records["parsec_light"]
    perturbed = copy.deepcopy(untraced)
    perturbed["sim_digest"] = "0" * 64
    failures = run.check_records([untraced, untraced, perturbed])
    assert failures[:2] == [[], []]
    assert failures[2] == ["sim_digest differs from the first repeat's"]
    result = run.workload_result(spec, "parsec_light", 7, [untraced, untraced, perturbed])
    assert (result["ops_attempted"], result["ops_failed"]) == (3, 1)


def test_a_failed_output_check_fails_the_operation(small_records):
    _, untraced = small_records["torus_faults"]
    broken = copy.deepcopy(untraced)
    broken["checks"]["accounting"] = False
    assert run.check_records([broken]) == [["check failed: accounting"]]


def test_a_crashing_child_is_counted_not_raised(spec, small_records):
    crashed = run.run_child([sys.executable, "-c", "import sys; sys.exit('boom')"])
    assert crashed == {"crashed": "exit code 1: boom"}
    silent = run.run_child([sys.executable, "-c", "pass"])
    assert silent == {"crashed": "no result record on standard output"}
    _, untraced = small_records["uniform_sat"]
    result = run.workload_result(spec, "uniform_sat", 7, [untraced, crashed])
    assert (result["ops_attempted"], result["ops_failed"]) == (2, 1)
    assert result["end_to_end"]["wall_ref_s"]["n"] == 1
    nothing = run.workload_result(spec, "uniform_sat", 7, [crashed])
    assert nothing["ops_failed"] == 1 and "end_to_end" not in nothing


def test_results_report_their_own_noise(spec, small_records):
    traced, untraced = small_records["parsec_light"]
    steady = [scaled(untraced, f) for f in (1.0, 1.01, 1.02, 1.03, 1.04)]
    result = run.workload_result(spec, "parsec_light", 7, [traced, *steady])
    wall = result["wall_s"]  # noise is judged on the time as measured
    assert (wall["n"], wall["min"]) == (5, untraced["layers"]["proc.wall_s"])
    assert wall["q1"] < wall["value"] < wall["q3"]
    assert result["noisy"] is False
    layers = result["per_layer"]
    assert layers["proc.wall_min_s"]["value"] == wall["min"]
    assert layers["proc.wall_iqr_s"]["value"] == wall["q3"] - wall["q1"]
    assert layers["proc.wall_over_cpu"]["value"] > 0
    assert layers["noc.trace_overhead_ratio"]["value"] > 0
    # A layer this workload never enters reads exactly 0.
    assert layers["rl.pretrain_s"]["value"] == 0.0  # noqa: NOC302 -- filled in, not computed
    assert result["spans"][0]["name"] == "child"

    jumpy = [scaled(untraced, f) for f in (1.0, 1.2, 1.4, 1.6, 1.8)]
    assert run.workload_result(spec, "parsec_light", 7, jumpy)["noisy"] is True


def test_end_to_end_numbers_come_from_untraced_repeats_only(spec, small_records):
    traced, untraced = small_records["uniform_sat"]
    result = run.workload_result(spec, "uniform_sat", 7, [scaled(traced, 50.0), untraced])
    assert result["end_to_end"]["setup_s"]["values"] == [untraced["end_to_end"]["setup_s"]]
    assert result["end_to_end"]["wall_ref_s"]["n"] == 1


def test_host_time_is_scaled_by_the_median_host_speed_of_the_run(spec, small_records):
    _, untraced = small_records["parsec_light"]
    repeats = [copy.deepcopy(untraced) for _ in range(3)]
    for repeat, speed in zip(repeats, (0.5, 0.8, 2.0)):
        repeat["layers"]["proc.host_speed"] = speed
    result = run.workload_result(spec, "parsec_light", 7, repeats)
    wall_s = untraced["layers"]["proc.wall_s"]
    assert result["wall_s"]["value"] == wall_s  # as measured
    assert result["end_to_end"]["wall_ref_s"]["value"] == pytest.approx(wall_s * 0.8)
    assert result["end_to_end"]["sim_cycles_per_ref_s"]["value"] == pytest.approx(
        untraced["sim_cycles"] / (wall_s * 0.8)
    )


def test_measure_alternates_traced_and_untraced_and_respects_the_time_box(tmp_path):
    calls = []

    def spawn(name, seed, traced, repeat, run_dir):
        calls.append((name, traced, repeat))
        return {}

    records = {"a": [], "b": []}
    run.measure(records, 7, 0.0, True, tmp_path, spawn)
    assert calls == [("a", True, 0), ("a", False, 1), ("b", True, 0), ("b", False, 1)]
    del calls[:]
    run.measure(records, 7, 0.0, False, tmp_path, spawn)  # a second pass goes on counting
    assert calls == [("a", False, 2), ("b", False, 2)]
    assert [len(repeats) for repeats in records.values()] == [3, 3]


def run_main(monkeypatch, capsys, record, trace):
    monkeypatch.setattr(run, "spawn_child", lambda *args: copy.deepcopy(record))
    code = run.main(
        ["--workload", "parsec_light", "--seed", "7", "--seconds", "0", "--trace", trace]
    )
    return code, capsys.readouterr().out.strip().splitlines()[-1]


def test_the_last_line_is_the_contract_object(spec, small_records, monkeypatch, capsys):
    traced, untraced = small_records["parsec_light"]
    code, last = run_main(monkeypatch, capsys, untraced, "0")
    line = json.loads(last)
    assert code == 0
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 1, 0)
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert line["metrics"]["setup_s"] == {
        "value": untraced["end_to_end"]["setup_s"], "unit": "s",
    }


def test_the_run_exits_non_zero_when_a_check_fails(small_records, monkeypatch, capsys):
    _, untraced = small_records["parsec_light"]
    broken = copy.deepcopy(untraced)
    broken["checks"]["accounting"] = False
    code, last = run_main(monkeypatch, capsys, broken, "0")
    assert code == 1
    assert json.loads(last)["correct"] is False

    code, last = run_main(monkeypatch, capsys, {"crashed": "boom"}, "0")
    assert code == 1
    assert not last.startswith("{")


def test_without_the_simulator_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "parsec_light",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
