"""Tests for trace analysis."""

import numpy as np
import pytest

from repro.traffic.analysis import analyze_trace, destination_heatmap, render_heatmap
from repro.traffic.parsec import generate_parsec_trace
from repro.traffic.trace import Trace, TraceEvent


def uniform_trace(n=200, gap=5):
    return Trace(
        [TraceEvent(i * gap, i % 64, (i * 7 + 1) % 64, 4) for i in range(n)
         if i % 64 != (i * 7 + 1) % 64]
    )


class TestAnalyzeTrace:
    def test_basic_counts(self):
        trace = uniform_trace()
        profile = analyze_trace(trace, 64, 8)
        assert profile.packets == len(trace)
        assert profile.flits == 4 * len(trace)
        assert profile.injection_rate == pytest.approx(
            len(trace) / ((trace.duration + 1) * 64)
        )

    def test_hotspot_trace_measures_concentrated(self):
        hotspot = Trace([TraceEvent(i, i % 63 + 1, 0, 4) for i in range(300)])
        spread = uniform_trace(300, gap=1)
        hot = analyze_trace(hotspot, 64, 8)
        uni = analyze_trace(spread, 64, 8)
        assert hot.hotspot_concentration > 0.9
        assert hot.hotspot_concentration > uni.hotspot_concentration
        assert hot.busiest_destination == 0

    def test_locality_fraction(self):
        near = Trace([TraceEvent(i, 9, 10, 4) for i in range(50)])
        assert analyze_trace(near, 64, 8).locality_fraction == 1.0
        assert analyze_trace(near, 64, 8).avg_hop_distance == 1.0

    def test_bursty_trace_scores_higher(self):
        smooth = Trace([TraceEvent(i * 10, 0, 1, 4) for i in range(100)])
        bursty = Trace(
            [TraceEvent((i // 25) * 400 + i % 25, 0, 1, 4) for i in range(100)]
        )
        assert (
            analyze_trace(bursty, 64, 8).burstiness_index
            > analyze_trace(smooth, 64, 8).burstiness_index
        )

    def test_parsec_profile_recovered(self):
        """The analyzer roughly recovers the generating profile's axes."""
        from repro.traffic.parsec import PARSEC_PROFILES

        trace = generate_parsec_trace("can", 8, 8, 20_000, 4, seed=5)
        profile = analyze_trace(trace, 64, 8)
        spec = PARSEC_PROFILES["can"]
        assert profile.injection_rate == pytest.approx(spec.injection_rate, rel=0.3)
        assert profile.hotspot_concentration > spec.hotspot_fraction * 0.8
        assert profile.reply_fraction == pytest.approx(spec.reply_fraction, abs=0.1)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            analyze_trace(Trace([]), 64, 8)

    def test_summary_is_one_line(self):
        assert "\n" not in analyze_trace(uniform_trace(), 64, 8).summary()


class TestHeatmap:
    def test_destination_counts(self):
        trace = Trace([TraceEvent(0, 1, 0, 4), TraceEvent(1, 2, 0, 4),
                       TraceEvent(2, 0, 63, 4)])
        grid = destination_heatmap(trace, 8, 8)
        assert grid[0, 0] == 2
        assert grid[7, 7] == 1
        assert grid.sum() == 3

    def test_render_shape(self):
        grid = np.zeros((8, 8), dtype=np.int64)
        grid[0, 0] = 10
        art = render_heatmap(grid)
        lines = art.splitlines()
        assert len(lines) == 8
        assert all(len(line) == 8 for line in lines)
        # Row 0 (south) is printed last; the hot cell is bottom-left.
        assert lines[-1][0] == "@"

    def test_render_all_zero(self):
        art = render_heatmap(np.zeros((2, 2), dtype=np.int64))
        assert set(art.replace("\n", "")) == {" "}

    def test_render_empty_rejected(self):
        with pytest.raises(ValueError):
            render_heatmap(np.zeros((0, 0)))
