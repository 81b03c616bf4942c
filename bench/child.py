"""One repeat of one workload, in a fresh interpreter.

The parent (``run.py``) starts this file once per repeat, so that every
repeat pays the interpreter start, the imports and the per-process
pre-training memo again, and ``setup_s`` and ``peak_rss_mb`` are true
per-run values.  The last line of standard output is the repeat's record
as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, duration, self_times

SRC = Path(__file__).resolve().parents[1] / "src"

#: Median seconds of one ``calibrate()`` on the host the baselines in
#: README.md were taken on, at its usual speed.  It only fixes the scale of
#: the ``*_ref_s`` metrics; changing it changes every baseline.
REFERENCE_CALIBRATION_S = 0.0165
CALIBRATION_CALLS = 8


class _Cell:
    __slots__ = ("count", "slots")

    def __init__(self) -> None:
        self.count = 0
        self.slots = [0] * 8

    def touch(self, i: int) -> int:
        self.count += i
        self.slots[i & 7] = self.count
        return self.count & 1


def calibrate(rounds: int = 150_000) -> float:
    """Seconds this host takes, now, for a fixed amount of interpreter work
    of the simulator's kind: method calls, slot, list and dict traffic,
    integer arithmetic."""
    cells = [_Cell() for _ in range(64)]
    seen = {}
    began = time.monotonic()
    for i in range(rounds):
        cell = cells[i & 63]
        if cell.touch(i):
            seen[i & 1023] = cell
    return time.monotonic() - began


def host_speed() -> float:
    """This host's speed right now, as a share of the reference host's.

    The host's speed drifts by a third over minutes.  The parent scales a
    run's wall times by the median of the speeds its repeats measured right
    after their timed bodies, which takes about half of the drift out
    (README, Noise).
    """
    return REFERENCE_CALIBRATION_S / statistics.median(
        calibrate() for _ in range(CALIBRATION_CALLS)
    )


def run_repeat(
    workload: str, seed: int, traced: bool, repeat: int, scratch: Path, spawned_at: float
) -> dict:
    tracer = Tracer(f"{workload}/{repeat}")
    with tracer.span("child", start=spawned_at) as child:
        with tracer.span("import") as imported:
            sys.path.insert(0, str(SRC))
            from workloads import WORKLOADS
        record = WORKLOADS[workload](tracer, seed, traced, scratch)
        with tracer.span("calibrate"):
            speed = host_speed()

    body = next(span for span in tracer.spans if span["name"] == "body")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = usage.ru_utime + usage.ru_stime
    record["traced"] = traced
    record["end_to_end"] = {
        "setup_s": body["start"] - spawned_at,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
        **record.pop("sim"),
    }
    record["layers"].update({
        "proc.import_s": duration(imported),
        "proc.cpu_s": cpu_s,
        "proc.wall_s": duration(body),
        "proc.host_speed": speed,
        "proc.wall_over_cpu": duration(child) / cpu_s,
    })
    if traced:
        own = self_times(tracer.spans)
        record["spans"] = [
            {**span, "self_s": own[span["id"]]} for span in tracer.spans
        ]
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--repeat", type=int, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    record = run_repeat(
        args.workload, args.seed, bool(args.trace), args.repeat,
        args.scratch, args.spawned_at,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
