"""The repository benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--workload NAME ...] [--seed 7] [--out PATH]

The first form is the driver's: it measures one workload for S seconds
and prints, as the last line of standard output, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
The second form is for people: without ``--trace`` it makes both passes
over every named workload (all four by default), repeats going round-robin
across workloads so that host drift lands on all alike, prints every metric
and writes the full result to ``--out`` for ``compare.py``.

A batch simulator has no arrival process: one parent, one child at a time,
no threads.  Each repeat is a fresh child interpreter (``child.py``) and
counts as one operation; it fails if the child crashes or an output check
fails.  The exit code is non-zero if any operation failed.

Metric names, units and bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Children's caches and sanitizer snapshots; inside the checkout, ignored by git.
TMP = ROOT / ".bench_tmp"

#: A workload is marked noisy when IQR / median of wall_s exceeds this.
NOISY_SPREAD = 0.10
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

Record = dict[str, Any]
Spawn = Callable[[str, int, bool, int, Path], Record]


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- children ------------------------------------------------------------------------


def run_child(argv: Sequence[str], env: dict[str, str] | None = None) -> Record:
    """Run one child to its end; a crash is a failed operation, not an error."""
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=env,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {CHILD_TIMEOUT_S:.0f}s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"crashed": f"exit code {proc.returncode}: {tail[0]}"}
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"crashed": "no result record on standard output"}
    return record if isinstance(record, dict) else {"crashed": "malformed record"}


def spawn_child(name: str, seed: int, traced: bool, repeat: int, run_dir: Path) -> Record:
    scratch = run_dir / f"{name}-{repeat}"
    scratch.mkdir()
    env = dict(os.environ)
    env.pop("REPRO_SANITIZE", None)
    if traced:
        # Networks built inside campaign cells take the sanitizer from here.
        env.update(REPRO_SANITIZE="1", REPRO_SANITIZE_DIR=str(scratch))
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", name, "--seed", str(seed), "--trace", str(int(traced)),
        "--repeat", str(repeat), "--scratch", str(scratch),
        "--spawned-at", repr(time.monotonic()),
    ]
    return run_child(argv, env)


def measure(
    records: dict[str, list[Record]],
    seed: int,
    seconds: float,
    traced: bool,
    run_dir: Path,
    spawn: Spawn,
) -> None:
    """Repeat each workload in *records*, round-robin, until it has used
    *seconds*, appending every repeat's record.

    A traced pass alternates a traced and an untraced repeat, so that the
    tracing overhead and the digest comparison have both sides from one run.
    """
    spent = dict.fromkeys(records, 0.0)
    rounds = 0
    active = list(records)
    while active:
        rounds += 1
        for name in list(active):
            began = time.monotonic()
            for flag in ((True, False) if traced else (False,)):
                records[name].append(
                    spawn(name, seed, flag, len(records[name]), run_dir)
                )
            spent[name] += time.monotonic() - began
            # Stop when one more round of average length would not fit.
            if spent[name] * (rounds + 1) / rounds > seconds:
                active.remove(name)


# --- checks and statistics -----------------------------------------------------------


def check_records(records: Sequence[Record]) -> list[list[str]]:
    """Per repeat, the reasons it counts as a failed operation (none if it passed)."""
    reference = next(
        (r["sim_digest"] for r in records if "crashed" not in r), None
    )
    failures: list[list[str]] = []
    for record in records:
        if "crashed" in record:
            failures.append([f"child crashed: {record['crashed']}"])
            continue
        why = [f"check failed: {name}" for name, ok in record["checks"].items() if not ok]
        if record["sim_digest"] != reference:
            why.append("sim_digest differs from the first repeat's")
        failures.append(why)
    return failures


def summarise(values: Sequence[float]) -> dict[str, float]:
    """Median with the sample count, minimum and quartiles.

    Fewer than 21 repeats fit in a run, so no tail percentile is reported.
    """
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "q3": q3,
    }


def workload_result(
    spec: dict[str, Any], name: str, seed: int, records: Sequence[Record]
) -> Record:
    """Fold one workload's repeats into medians, noise figures and verdicts.

    End-to-end metrics come from untraced repeats only.  A per-layer metric
    comes from the untraced repeats when they can measure it and from the
    traced ones otherwise; a layer the workload never enters reads 0.
    """
    failures = check_records(records)
    good = [r for r in records if "crashed" not in r]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    result: Record = {
        "workload": name,
        "seed": seed,
        "ops_attempted": len(records),
        "ops_failed": sum(1 for why in failures if why),
        "failures": sorted({reason for why in failures for reason in why}),
        "sim_digest": good[0]["sim_digest"] if good else None,
    }
    if not untraced:
        return result

    # Host time in seconds of the reference host: as measured, times the
    # median of the host speeds the repeats measured after their bodies.
    speed = statistics.median(r["layers"]["proc.host_speed"] for r in untraced)
    rows = []
    for r in untraced:
        wall_ref_s = r["layers"]["proc.wall_s"] * speed
        rows.append({
            **r["end_to_end"],
            "wall_ref_s": wall_ref_s,
            "sim_cycles_per_ref_s": r["sim_cycles"] / wall_ref_s,
        })
    end_to_end = {}
    for metric in spec["end_to_end"]:
        values = [row[metric["name"]] for row in rows]
        end_to_end[metric["name"]] = {**metric, **summarise(values), "values": values}
    result["end_to_end"] = end_to_end
    # Noise is judged on the wall time as measured, before normalisation.
    wall = summarise([r["layers"]["proc.wall_s"] for r in untraced])
    result["wall_s"] = {"name": "wall_s (as measured)", "unit": "s", **wall}
    result["noisy"] = (wall["q3"] - wall["q1"]) / wall["value"] > NOISY_SPREAD
    if not traced:
        return result

    layers = {
        "proc.wall_iqr_s": wall["q3"] - wall["q1"],
        "proc.wall_min_s": wall["min"],
        "noc.trace_overhead_ratio": (
            statistics.median(r["layers"]["proc.wall_s"] for r in traced) / wall["value"]
        ),
    }
    for source in (traced, untraced):
        for key in sorted({key for r in source for key in r["layers"]}):
            layers[key] = statistics.median(
                r["layers"][key] for r in source if key in r["layers"]
            )
    known = {metric["name"] for metric in spec["per_layer"]}
    if not layers.keys() <= known:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(layers.keys() - known)}")
    result["per_layer"] = {
        metric["name"]: {**metric, "value": layers.get(metric["name"], 0.0)}
        for metric in spec["per_layer"]
    }
    result["spans"] = traced[-1]["spans"]
    return result


# --- output ------------------------------------------------------------------------


def print_result(result: Record) -> None:
    name = result["workload"]
    flag = "  NOISY: wall_s IQR/median > %.2f" % NOISY_SPREAD if result.get("noisy") else ""
    print(
        f"== {name}  seed {result['seed']}  ops {result['ops_attempted']} "
        f"failed {result['ops_failed']}  sim_digest {str(result['sim_digest'])[:16]}{flag}"
    )
    for reason in result["failures"]:
        print(f"   FAILED  {reason}")
    measured = [result["wall_s"]] if "wall_s" in result else []
    for m in [*measured, *result.get("end_to_end", {}).values()]:
        print(
            f"   {m['name']:<34} {m['value']:>14.6g} {m['unit']:<9} "
            f"n={m['n']} min={m['min']:.6g} q1={m['q1']:.6g} q3={m['q3']:.6g}"
        )
    for m in result.get("per_layer", {}).values():
        print(f"   {m['name']:<34} {m['value']:>14.6g} {m['unit']}")


def contract_line(result: Record, section: str) -> str:
    """The driver's result object: exactly correct, attempted, failed, metrics."""
    return json.dumps({
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {
            m["name"]: {"value": m["value"], "unit": m["unit"]}
            for m in result[section].values()
        },
    })


def main(argv: Sequence[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    passes = (False, True) if args.trace is None else (bool(args.trace),)
    section = "per_layer" if passes[-1] else "end_to_end"
    TMP.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=TMP))
    try:
        records: dict[str, list[Record]] = {name: [] for name in args.workload}
        for traced in passes:
            measure(records, args.seed, args.seconds, traced, run_dir, spawn_child)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    results = [
        workload_result(spec, name, args.seed, records[name]) for name in args.workload
    ]
    for result in results:
        print_result(result)
    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {
                    "schema": "repro-bench/1",
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "cpus": os.cpu_count(),
                    "workloads": {r["workload"]: r for r in results},
                },
                indent=1,
            )
            + "\n",
            encoding="utf-8",
        )
    if any(section not in result for result in results):
        print("bench: no repeat succeeded, nothing to report", file=sys.stderr)
        return 1
    if args.trace is not None and len(results) == 1:
        print(contract_line(results[0], section))
    return 1 if any(r["ops_failed"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
