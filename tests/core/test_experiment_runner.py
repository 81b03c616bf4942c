"""Tests for the campaign runner and sensitivity sweeps (small scale)."""

import math
from dataclasses import replace

import pytest

from repro.config import INTELLINOC, SECDED_BASELINE
from repro.core import figures
from repro.core.experiment import ExperimentRunner
from repro.core.intellinoc import IntelliNoCSystem
from repro.core.sweep import SensitivitySweep
from repro.exec.worker import build_trace
from repro.traffic.parsec import generate_parsec_trace


def trace(runner, benchmark, technique):
    """The trace the engine generates for one of *runner*'s cells."""
    return build_trace(runner.spec_for(technique, benchmark))


@pytest.fixture(scope="module")
def tiny_runner():
    runner = ExperimentRunner(
        duration=1200,
        seed=4,
        benchmarks=["swa", "bod"],
        techniques=[SECDED_BASELINE, INTELLINOC],
        pretrain_cycles=2000,
    )
    runner.run_campaign()
    return runner


class TestRunner:
    def test_campaign_fills_all_cells(self, tiny_runner):
        results = tiny_runner.run_campaign()
        assert set(results) == {
            ("SECDED", "swa"),
            ("SECDED", "bod"),
            ("IntelliNoC", "swa"),
            ("IntelliNoC", "bod"),
        }

    def test_cells_are_cached(self, tiny_runner):
        a = tiny_runner.run_cell(SECDED_BASELINE, "swa")
        b = tiny_runner.run_cell(SECDED_BASELINE, "swa")
        assert a is b

    def test_identical_traces_across_techniques(self, tiny_runner):
        trace_a = trace(tiny_runner, "swa", SECDED_BASELINE)
        trace_b = trace(tiny_runner, "swa", INTELLINOC)
        # same packets for every technique
        assert trace_a.fingerprint() == trace_b.fingerprint()

    def test_figure_tables_normalized_to_baseline(self, tiny_runner):
        table, averages = tiny_runner.figure10_latency()
        assert averages["SECDED"] == 1.0
        assert "Fig. 10" in table
        assert "average" in table

    def test_speedup_inverts_execution_time(self, tiny_runner):
        _, averages = tiny_runner.figure9_speedup()
        # Per-benchmark speed-up = base cycles / ours cycles; the figure's
        # average is the geometric mean of those.
        speedups = [
            tiny_runner.run_cell(SECDED_BASELINE, benchmark).execution_cycles
            / tiny_runner.run_cell(INTELLINOC, benchmark).execution_cycles
            for benchmark in tiny_runner.benchmarks
        ]
        assert averages["IntelliNoC"] == pytest.approx(
            math.prod(speedups) ** (1 / len(speedups))
        )

    def test_mode_breakdown_covers_benchmarks(self, tiny_runner):
        table, avg = tiny_runner.figure14_mode_breakdown()
        assert abs(sum(avg.values()) - 1.0) < 1e-9
        assert table.count("\n") >= 4  # title + header + 2 benchmarks

    def test_mttf_figure_positive(self, tiny_runner):
        _, averages = tiny_runner.figure16_mttf()
        assert all(v > 0 for v in averages.values())


class TestTraceCacheKey:
    def test_trace_cache_distinguishes_geometry(self):
        """Techniques with different mesh shapes never share a trace: the
        spec carries the geometry the generator addresses."""
        runner = ExperimentRunner(duration=1000, seed=2)
        small = replace(
            SECDED_BASELINE,
            name="SECDED-4x4",
            noc=replace(SECDED_BASELINE.noc, width=4, height=4),
        )
        big_trace = trace(runner, "swa", SECDED_BASELINE)
        small_trace = trace(runner, "swa", small)
        assert big_trace.fingerprint() != small_trace.fingerprint()
        assert all(e.src < 16 and e.dst < 16 for e in small_trace.events)
        assert any(e.src >= 16 or e.dst >= 16 for e in big_trace.events)

    def test_trace_cache_distinguishes_duration_and_seed(self):
        a = trace(ExperimentRunner(duration=1000, seed=2), "swa", SECDED_BASELINE)
        b = trace(ExperimentRunner(duration=1500, seed=2), "swa", SECDED_BASELINE)
        c = trace(ExperimentRunner(duration=1000, seed=3), "swa", SECDED_BASELINE)
        assert a.duration <= 1000 < b.duration or len(a) != len(b)
        assert a.fingerprint() != c.fingerprint()

    def test_cell_spec_hash_includes_geometry(self):
        runner = ExperimentRunner(duration=1000, seed=2)
        small = replace(
            SECDED_BASELINE,
            noc=replace(SECDED_BASELINE.noc, width=4, height=4),
        )
        assert (
            runner.spec_for(SECDED_BASELINE, "swa").content_hash()
            != runner.spec_for(small, "swa").content_hash()
        )


class TestRunnerEngineModes:
    def test_parallel_runner_matches_serial(self):
        kwargs = dict(
            duration=900,
            seed=4,
            benchmarks=["swa"],
            techniques=[SECDED_BASELINE],
        )
        serial = ExperimentRunner(jobs=1, **kwargs).run_campaign()
        parallel = ExperimentRunner(jobs=2, **kwargs).run_campaign()
        assert serial == parallel

    def test_cached_runner_reuses_results(self, tmp_path):
        kwargs = dict(
            duration=900,
            seed=4,
            benchmarks=["swa"],
            techniques=[SECDED_BASELINE],
            cache_dir=tmp_path / "cache",
        )
        first = ExperimentRunner(**kwargs)
        first.run_campaign()
        assert first.engine.total_executed == 1

        second = ExperimentRunner(**kwargs)
        results = second.run_campaign()
        assert second.engine.total_executed == 0
        assert second.engine.total_cache_hits == 1
        assert results == {k: v for k, v in first.run_campaign().items()}


class TestRunTechnique:
    def test_single_run_helper(self):
        """One technique on one explicit trace, outside any campaign."""
        trace = generate_parsec_trace("swa", 8, 8, 1000, 4, seed=4)
        metrics = IntelliNoCSystem(SECDED_BASELINE, seed=4).run_trace(trace)
        assert metrics.technique == "SECDED"
        assert metrics.packets_completed > 0


class TestPartialFigures:
    """Figure renderers degrade gracefully under quarantine/skip policies."""

    NAMES = ["SECDED", "IntelliNoC"]
    BENCHMARKS = ["swa", "bod"]

    def test_incomplete_benchmark_is_omitted_with_a_footer(self, tiny_runner):
        results = dict(tiny_runner.run_campaign())
        results[("IntelliNoC", "bod")] = None  # quarantined cell
        table, averages = figures.figure10_latency(
            results, self.NAMES, self.BENCHMARKS
        )
        body, _, footer = table.partition("omitted")
        assert "bod" not in body
        assert footer == " (incomplete results): bod"
        assert averages["SECDED"] == 1.0

    def test_every_benchmark_incomplete_raises(self, tiny_runner):
        results = dict(tiny_runner.run_campaign())
        results.pop(("IntelliNoC", "swa"))  # skipped cell: key absent
        results[("IntelliNoC", "bod")] = None
        with pytest.raises(ValueError, match="no benchmark has complete"):
            figures.figure10_latency(results, self.NAMES, self.BENCHMARKS)

    def test_mode_breakdown_omits_missing_benchmarks(self, tiny_runner):
        results = dict(tiny_runner.run_campaign())
        results[("IntelliNoC", "bod")] = None
        table, avg = figures.figure14_mode_breakdown(results, self.BENCHMARKS)
        assert "omitted (incomplete results): bod" in table
        assert abs(sum(avg.values()) - 1.0) < 1e-9

    def test_mode_breakdown_with_no_rows_raises(self, tiny_runner):
        with pytest.raises(ValueError, match="no benchmark has a"):
            figures.figure14_mode_breakdown({}, self.BENCHMARKS)


class TestSweeps:
    def test_time_step_sweep_smoke(self):
        sweep = SensitivitySweep(duration=1200, seed=4)
        points = sweep.sweep_time_step([400, 1200])
        assert [p.value for p in points] == [400, 1200]
        assert all(p.edp > 0 for p in points)

    def test_gamma_sweep_varies_hyperparameter(self):
        sweep = SensitivitySweep(duration=1000, seed=4)
        points = sweep.sweep_gamma([0.0, 0.9])
        assert all(p.metrics.packets_completed > 0 for p in points)

    def test_error_rate_sweep_scales_faults(self):
        sweep = SensitivitySweep(duration=1000, seed=4)
        lo, hi = sweep.sweep_error_rate([1e-9, 5e-4])
        lo_retx = lo.metrics.reliability.total_retransmitted_flits
        hi_retx = hi.metrics.reliability.total_retransmitted_flits
        assert hi_retx >= lo_retx
