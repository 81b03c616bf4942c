"""Unit tests for the in-loop step profiler (repro.telemetry.simprof).

A counter clock injected through the ``clock`` parameter makes every
wall-time quantity deterministic: each read advances time by exactly one
tick, so phase totals, overhead self-attribution, and shares can be
asserted exactly.
"""

import json

import pytest

from repro.telemetry import (
    CHROME_TRACE_SCHEMA,
    OVERHEAD_PHASE,
    STEP_PHASES,
    SimProfiler,
)


class FakeClock:
    """Monotonic clock advancing one tick per read."""

    def __init__(self, tick=1.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now


def make(stride=1, heat=True):
    return SimProfiler(stride=stride, heat=heat, clock=FakeClock())


class TestStride:
    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            SimProfiler(stride=0)
        with pytest.raises(ValueError):
            SimProfiler(stride=-3)

    def test_stride_samples_every_nth_step(self):
        prof = make(stride=3)
        opened = [prof.begin_step(cycle) for cycle in range(10)]
        assert opened == [True, False, False] * 3 + [True]
        assert prof.steps_seen == 10

    def test_off_stride_steps_cost_no_clock_reads(self):
        prof = make(stride=2)
        clock = prof._clock
        assert prof.begin_step(0) is True
        reads_after_open = clock.now
        assert prof.begin_step(1) is False
        assert clock.now == reads_after_open

    def test_cycle_window_tracks_sampled_steps_only(self):
        prof = make(stride=2)
        for cycle in range(5):
            if prof.begin_step(cycle):
                prof.end_step()
        assert prof.first_cycle == 0
        assert prof.last_cycle == 4
        assert prof.steps_profiled == 3


class TestAggregation:
    def run_two_steps(self):
        """Two profiled steps: inject lapped twice, scenario.tick once."""
        prof = make()
        assert prof.begin_step(0)
        prof.lap("inject")
        prof.lap("scenario.tick")
        prof.end_step()
        assert prof.begin_step(1)
        prof.lap("inject")
        prof.end_step()
        return prof

    def test_phase_totals_and_overhead_self_attribution(self):
        prof = self.run_two_steps()
        totals = prof.phase_totals()
        # Each lap spends one tick in the phase and one in bookkeeping;
        # each end_step adds two more bookkeeping ticks.
        assert totals["inject"] == pytest.approx(2.0)
        assert totals["scenario.tick"] == pytest.approx(1.0)
        assert totals[OVERHEAD_PHASE] == pytest.approx(7.0)
        assert prof.total_s() == pytest.approx(10.0)
        assert prof.phase_laps() == {"inject": 2, "scenario.tick": 1}

    def test_totals_follow_canonical_phase_order(self):
        prof = self.run_two_steps()
        prof.lap("custom.extra")  # unknown phases rank after canonical ones
        names = list(prof.phase_totals())
        assert names == ["scenario.tick", "inject", "custom.extra", OVERHEAD_PHASE]
        assert names[0] in STEP_PHASES

    def test_shares_sum_to_one(self):
        prof = self.run_two_steps()
        shares = prof.phase_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["inject"] == pytest.approx(0.2)

    def test_empty_profiler_has_zero_shares(self):
        prof = make()
        assert prof.total_s() == pytest.approx(0.0)
        assert set(prof.phase_shares().values()) == {0.0}

    def test_hot_spots_rank_by_seconds_and_skip_overhead(self):
        prof = self.run_two_steps()
        spots = prof.hot_spots(top_n=5)
        assert [name for name, _, _ in spots] == ["inject", "scenario.tick"]
        assert spots[0][1] == pytest.approx(2.0)
        assert spots[0][2] == pytest.approx(0.2)
        assert prof.top_phase() == "inject"
        with_ovh = prof.hot_spots(top_n=5, include_overhead=True)
        assert with_ovh[0][0] == OVERHEAD_PHASE

    def test_empty_profiler_has_no_top_phase(self):
        assert make().top_phase() is None


class TestHeat:
    def test_heat_tables_average_over_profiled_steps(self):
        prof = make()
        prof.channel_labels = ["r0->east->r1"]
        assert prof.begin_step(0)
        prof.end_step(router_flits=[2, 0, 1], channel_flits=[3])
        assert prof.begin_step(1)
        prof.end_step(router_flits=[1, 0, 0], channel_flits=[0])
        routers = prof.router_heat()
        assert routers[0] == {"router": 0, "busy_share": 1.0, "mean_flits": 1.5}
        assert routers[1]["busy_share"] == pytest.approx(0.0)
        assert routers[2]["busy_share"] == pytest.approx(0.5)
        channels = prof.channel_heat()
        assert channels[0]["label"] == "r0->east->r1"
        assert channels[0]["mean_flits"] == pytest.approx(1.5)

    def test_heat_arrays_grow_lazily(self):
        prof = make()
        assert prof.begin_step(0)
        prof.end_step(router_flits=[1])
        assert prof.begin_step(1)
        prof.end_step(router_flits=[0, 4])
        assert [r["mean_flits"] for r in prof.router_heat()] == [0.5, 2.0]


class TestExport:
    def profiled(self):
        prof = make()
        assert prof.begin_step(0)
        prof.lap("link.deliver")
        prof.lap("inject")
        prof.end_step(router_flits=[1], channel_flits=[2])
        return prof

    def test_chrome_trace_events_are_contiguous(self):
        trace = self.profiled().to_chrome_trace()
        assert trace["otherData"]["schema"] == CHROME_TRACE_SCHEMA
        events = trace["traceEvents"]
        assert [e["name"] for e in events] == [
            "link.deliver", "inject", OVERHEAD_PHASE,
        ]
        cursor = 0.0
        for event in events:
            assert event["ph"] == "X"
            assert event["tid"] == 1
            assert event["ts"] == pytest.approx(cursor)
            cursor += event["dur"]

    def test_spans_and_the_averaged_step_share_one_trace(self):
        prof = self.profiled()
        with prof.phase("simulate"):
            pass
        events = prof.to_chrome_trace()["traceEvents"]
        assert [(e["name"], e["tid"]) for e in events][:2] == [
            ("simulate", 0), ("link.deliver", 1),
        ]

    def test_write_paths_round_trip(self, tmp_path):
        prof = self.profiled()
        trace_path = prof.write_chrome_trace(tmp_path / "nested" / "trace.json")
        trace = json.loads(trace_path.read_text())
        assert trace == prof.to_chrome_trace()
        assert trace["otherData"]["steps_profiled"] == 1

    def test_repr_mentions_sampling(self):
        prof = self.profiled()
        assert "profiled=1/1 steps" in repr(prof)
