"""Compare two results written by ``run.py --out``.

    python3 bench/compare.py BASE.json NEW.json

One row per workload and end-to-end metric with the base value, the ratio
new / base, the metric's bound and a verdict:

* ``worse``      the new median is worse than the base by more than the bound;
* ``better``     it improved by more than the spread between either side's own runs;
* ``unchanged``  neither;
* ``unresolved`` the run-to-run spread (IQR / median, of either side) is
  wider than the bound and the two sides' runs overlap, so the bound
  cannot be checked.

It also reports, per workload, whether ``sim_digest`` changed and the share
of failed operations.  The exit code is non-zero when a metric is worse or
more operations failed than in the base.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import Any

Metric = dict[str, Any]


def spread(metric: Metric) -> float:
    """IQR as a share of the median."""
    return (metric["q3"] - metric["q1"]) / abs(metric["value"]) if metric["value"] else 0.0


def worsening(base: Metric, new: Metric) -> float:
    """How much worse *new* is, as a share of *base*; negative when better."""
    change = (new["value"] - base["value"]) / abs(base["value"])
    return change if base["better"] == "lower" else -change


def verdict(base: Metric, new: Metric) -> str:
    worse_by = worsening(base, new)
    noise = max(spread(base), spread(new))
    if noise > base["bound"]:
        sign = 1 if base["better"] == "lower" else -1
        old_runs = [sign * v for v in base["values"]]
        new_runs = [sign * v for v in new["values"]]
        if max(new_runs) < min(old_runs):
            return "better"
        if min(new_runs) > max(old_runs) and worse_by > base["bound"]:
            return "worse"
        return "unresolved"
    if worse_by > base["bound"]:
        return "worse"
    if worse_by < 0 and -worse_by > noise:
        return "better"
    return "unchanged"


def failed_share(result: dict[str, Any]) -> float:
    return result["ops_failed"] / result["ops_attempted"]


def compare(base: dict[str, Any], new: dict[str, Any]) -> tuple[list[list[str]], bool]:
    """Report rows for every workload both results hold, and whether all passed."""
    rows: list[list[str]] = []
    passed = True
    for name, old in base["workloads"].items():
        cur = new["workloads"].get(name)
        if cur is None or "end_to_end" not in old or "end_to_end" not in cur:
            rows.append([name, "(not measured on both sides)", "", "", "", "missing"])
            passed = False
            continue
        for metric, a in old["end_to_end"].items():
            b = cur["end_to_end"][metric]
            outcome = verdict(a, b)
            passed = passed and outcome != "worse"
            rows.append([
                name, metric, f"{a['value']:.6g} {a['unit']}",
                f"{b['value'] / a['value']:.4f}", f"{a['bound']:.2f}", outcome,
            ])
        same = old["sim_digest"] == cur["sim_digest"]
        rows.append([name, "sim_digest", str(old["sim_digest"])[:16], "", "",
                     "identical" if same else "changed"])
        more_failed = failed_share(cur) > failed_share(old)
        passed = passed and not more_failed
        rows.append([name, "failed operations", f"{failed_share(old):.3f}",
                     f"-> {failed_share(cur):.3f}", "", "worse" if more_failed else "ok"])
    return rows, passed


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args)
    rows, passed = compare(base, new)
    header = ["workload", "metric", "base", "new/base", "bound", "verdict"]
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
