"""compare.py verdicts on hand-made inputs."""

from __future__ import annotations

import json

import compare
from run import summarise


def metric(values, better="lower", bound=0.10):
    return {"name": "wall_s", "unit": "s", "better": better, "bound": bound,
            **summarise(values), "values": values}


def result(values, digest="d1", failed=0, **kwargs):
    return {"workloads": {"w": {
        "ops_attempted": 5, "ops_failed": failed, "sim_digest": digest,
        "end_to_end": {"wall_s": metric(values, **kwargs)},
    }}}


STEADY = [1.00, 1.01, 1.02, 1.03, 1.04]


def test_verdicts_for_a_lower_is_better_metric():
    base = metric(STEADY)
    assert compare.verdict(base, metric([v * 1.05 for v in STEADY])) == "unchanged"
    assert compare.verdict(base, metric([v * 1.20 for v in STEADY])) == "worse"
    assert compare.verdict(base, metric([v * 0.80 for v in STEADY])) == "better"
    # An improvement inside the spread between the runs is no gain.
    assert compare.verdict(base, metric([v * 0.99 for v in STEADY])) == "unchanged"


def test_verdicts_follow_the_direction_of_the_metric():
    base = metric(STEADY, better="higher")
    assert compare.verdict(base, metric([v * 0.80 for v in STEADY], better="higher")) == "worse"
    assert compare.verdict(base, metric([v * 1.20 for v in STEADY], better="higher")) == "better"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_separate():
    wide = [1.0, 1.2, 1.4, 1.6, 1.8]
    base = metric(wide)
    assert compare.spread(base) > base["bound"]
    assert compare.verdict(base, metric([v * 1.15 for v in wide])) == "unresolved"
    assert compare.verdict(base, metric([v * 0.95 for v in wide])) == "unresolved"
    assert compare.verdict(base, metric([v * 0.50 for v in wide])) == "better"
    assert compare.verdict(base, metric([v * 2.00 for v in wide])) == "worse"


def test_exact_simulated_metrics_compare_exactly():
    base = metric([21.9] * 5)
    assert compare.verdict(base, metric([21.9] * 5)) == "unchanged"
    assert compare.verdict(base, metric([21.0] * 5)) == "better"
    assert compare.verdict(base, metric([22.5] * 5)) == "unchanged"  # inside the bound
    assert compare.verdict(base, metric([25.0] * 5)) == "worse"


def test_digest_and_failed_share_are_reported():
    rows, passed = compare.compare(result(STEADY), result(STEADY, digest="d2"))
    assert passed
    assert [r[-1] for r in rows] == ["unchanged", "changed", "ok"]
    rows, passed = compare.compare(result(STEADY), result(STEADY, failed=1))
    assert not passed
    assert rows[-1][-1] == "worse"


def test_exit_code_is_non_zero_on_worse(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(result(STEADY)))
    b.write_text(json.dumps(result([v * 1.02 for v in STEADY])))
    c.write_text(json.dumps(result([v * 1.5 for v in STEADY])))
    assert compare.main([str(a), str(b)]) == 0
    assert compare.main([str(a), str(c)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(a)]) == 2
