"""Span bookkeeping and self-time arithmetic."""

from __future__ import annotations

import pytest
from spans import Tracer, self_times


def ticking_clock():
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]

    return clock


def test_nested_spans_record_parent_and_run_id():
    tracer = Tracer("w/3", clock=ticking_clock())
    with tracer.span("child") as child:
        with tracer.span("import") as imported:
            pass
        with tracer.span("body") as body:
            tracer.add("cell", 4.25, 4.75)
    assert [s["parent"] for s in tracer.spans] == [None, child["id"], child["id"], body["id"]]
    assert {s["run"] for s in tracer.spans} == {"w/3"}
    assert (child["start"], child["end"]) == (1.0, 6.0)
    assert (imported["start"], imported["end"]) == (2.0, 3.0)


def test_self_time_is_duration_minus_what_children_cover():
    tracer = Tracer("w/0", clock=ticking_clock())
    with tracer.span("child"):           # 1 .. 6
        with tracer.span("import"):      # 2 .. 3
            pass
        with tracer.span("body"):        # 4 .. 5
            tracer.add("cell", 4.25, 4.75)
    own = self_times(tracer.spans)
    assert own == {0: 3.0, 1: 1.0, 2: 0.5, 3: 0.5}
    assert sum(own.values()) == pytest.approx(5.0)  # the root's whole duration


def test_overlapping_and_overhanging_children_are_counted_once():
    tracer = Tracer("w/0")
    with tracer.span("parent", start=0.0) as parent:
        tracer.add("a", 1.0, 4.0)
        tracer.add("b", 3.0, 6.0)     # overlaps a
        tracer.add("c", 9.0, 12.0)    # runs past the parent's end
    parent["end"] = 10.0
    assert self_times(tracer.spans)[parent["id"]] == pytest.approx(10.0 - 5.0 - 1.0)

