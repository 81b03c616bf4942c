"""Tests for the campaign runner, the grid it shares with the paper table,
and the sensitivity sweeps as slices of that grid (small scale)."""

import math
from dataclasses import replace

import pytest

from repro.config import INTELLINOC, SECDED_BASELINE, all_techniques, technique
from repro.core import figures
from repro.cli import build_parser, main
from repro.core.experiment import FULL_GRID, REDUCED_GRID, ExperimentRunner
from repro.exec import EngineOptions, worker
from repro.exec.spec import parsec_cell
from repro.exec.worker import build_trace, execute_cell
from repro.report.paper import ERROR_RATES, PaperEvaluator


def render(runner, figure):
    """One suite figure over *runner*'s campaign, as ``repro campaign``
    prints it."""
    names = [t.name for t in runner.techniques]
    return figures.SUITE_FIGURES[figure](runner.run_campaign(), names, runner.benchmarks)


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
        a = tiny_runner.run_campaign()[("SECDED", "swa")]
        b = tiny_runner.run_campaign()[("SECDED", "swa")]
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
        _, averages = render(tiny_runner, "fig09_speedup")
        # Per-benchmark speed-up = base cycles / ours cycles; the figure's
        # average is the geometric mean of those.
        results = tiny_runner.run_campaign()
        speedups = [
            results["SECDED", benchmark].execution_cycles
            / results["IntelliNoC", benchmark].execution_cycles
            for benchmark in tiny_runner.benchmarks
        ]
        assert averages["IntelliNoC"] == pytest.approx(
            math.prod(speedups) ** (1 / len(speedups))
        )

    def test_mode_breakdown_covers_benchmarks(self, tiny_runner):
        table, avg = render(tiny_runner, "fig14_mode_breakdown")
        assert abs(sum(avg.values()) - 1.0) < 1e-9
        assert table.count("\n") >= 4  # title + header + 2 benchmarks

    def test_mttf_figure_positive(self, tiny_runner):
        _, averages = render(tiny_runner, "fig16_mttf")
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
        """One technique on one benchmark, outside any campaign."""
        metrics = execute_cell(parsec_cell(SECDED_BASELINE, "swa", 1000, seed=4))
        assert metrics.technique == "SECDED"
        assert metrics.packets_completed > 0


class TestOneGrid:
    """FULL_GRID is the one set of campaign defaults, and the paper table's
    suite cells are the runner's."""

    def test_runner_and_cli_defaults_are_the_full_grid(self):
        runner = ExperimentRunner()
        assert (runner.seed, runner.duration, runner.pretrain_cycles) == (
            FULL_GRID.seed, FULL_GRID.duration, FULL_GRID.pretrain
        )
        assert runner.benchmarks == list(FULL_GRID.benchmarks)
        campaign = build_parser().parse_args(["campaign"])
        assert (campaign.seed, campaign.duration, campaign.pretrain) == (
            FULL_GRID.seed, FULL_GRID.duration, FULL_GRID.pretrain
        )
        assert campaign.benchmarks == list(FULL_GRID.benchmarks)
        sweep = build_parser().parse_args(["sweep", "--knob", "gamma"])
        assert (sweep.seed, sweep.duration) == (
            FULL_GRID.seed, FULL_GRID.tuning_duration
        )

    @pytest.mark.parametrize("grid", [FULL_GRID, REDUCED_GRID], ids=lambda g: g.name)
    def test_paper_suite_cells_are_the_runners(self, grid):
        runner = ExperimentRunner(
            duration=grid.duration, seed=grid.seed,
            benchmarks=list(grid.benchmarks), pretrain_cycles=grid.pretrain,
        )
        suite = PaperEvaluator(grid=grid).specs(["fig10_latency"])
        assert {k: s.content_hash() for k, s in suite.items()} == {
            (t.name, b): runner.spec_for(t, b).content_hash()
            for t in runner.techniques for b in runner.benchmarks
        }

    @pytest.mark.parametrize("grid", [FULL_GRID, REDUCED_GRID], ids=lambda g: g.name)
    def test_every_paper_cell_is_its_grids_cell(self, grid):
        """One layout: each cell of the table is `Grid.cell` of its own
        (technique, benchmark, duration, faults), and only the suite and
        Fig. 17(b) cells deploy a pre-trained policy."""
        specs = PaperEvaluator(grid=grid).specs()
        untrained = replace(grid, pretrain=0)
        for key, spec in specs.items():
            layout = untrained if spec.pretraining is None else grid
            assert spec == layout.cell(
                spec.technique, spec.workload.name, spec.workload.duration, spec.faults
            ), key
        assert {k for k, s in specs.items() if s.pretraining is not None} == {
            *((INTELLINOC.name, b) for b in grid.benchmarks),
            *(("error", rate, INTELLINOC.name) for rate in ERROR_RATES),
        }

    def test_runner_cells_are_the_grids_cells(self):
        runner = ExperimentRunner(duration=900, seed=3, pretrain_cycles=1200)
        grid = replace(FULL_GRID, duration=900, seed=3, pretrain=1200)
        for t in runner.techniques:
            assert runner.spec_for(t, "can") == grid.cell(t, "can")
        assert runner.spec_for(INTELLINOC, "can").pretrain_cycles == 1200
        assert runner.spec_for(SECDED_BASELINE, "can").pretrain_cycles == 0

    def test_campaign_and_run_cells_are_the_grids_cells(self, monkeypatch):
        """What `repro campaign` hands the engine and `repro run` executes."""
        class Laid(Exception):
            pass

        laid = []

        def lay(_options, specs, *_args):
            laid.extend(specs)
            raise Laid

        def lay_one(spec, *_args, **_kwargs):
            laid.append(spec)
            raise Laid

        monkeypatch.setattr(EngineOptions, "run_specs", lay)
        monkeypatch.setattr(worker, "execute_cell", lay_one)
        monkeypatch.setattr(worker, "pretrain", lambda job: None)
        with pytest.raises(Laid):
            main(["campaign", "--benchmarks", "swa", "can", "--duration", "700",
                  "--pretrain", "900", "--seed", "3", "--no-cache", "--quiet"])
        grid = replace(FULL_GRID, duration=700, seed=3, pretrain=900)
        assert laid == [grid.cell(t, b) for t in all_techniques() for b in ("swa", "can")]
        for name in ("secded", "intellinoc"):
            laid.clear()
            with pytest.raises(Laid):
                main(["run", "--technique", name, "--benchmark", "fre",
                      "--duration", "500", "--pretrain", "900", "--seed", "3"])
            assert laid == [grid.cell(technique(name), "fre", 500)]

    def test_full_grid_cache_keys_are_pinned(self):
        """A moved key re-simulates every cached cell of the table."""
        runner = ExperimentRunner()
        assert runner.spec_for(INTELLINOC, "bod").content_hash().startswith("b571e824")
        assert runner.spec_for(SECDED_BASELINE, "swa").content_hash().startswith(
            "1a471363"
        )


def sweep(figure):
    """One sweep figure of the reduced grid: its cells' ``{key: metrics}``
    and the figure the table renders from them."""
    evaluator = PaperEvaluator(grid=REDUCED_GRID, use_cache=True)
    specs = evaluator.specs([figure])
    cells = dict(zip(specs, evaluator.run_specs(list(specs.values())).metrics))
    return cells, evaluator.measure([figure])[figure]


class TestSweeps:
    def test_time_step_sweep_smoke(self):
        cells, measured = sweep("fig17a_timestep")
        assert [point for _, point in cells] == [200, 500, 1000, 10_000]
        assert all(m.energy_delay_product > 0 for m in cells.values())
        assert measured.values["1000 cycles"] == 1.0
        assert "Fig. 17(a)" in measured.table

    def test_gamma_sweep_varies_hyperparameter(self):
        evaluator = PaperEvaluator(grid=REDUCED_GRID)
        gammas = [s.technique.rl.discount
                  for s in evaluator.specs(["fig18a_gamma"]).values()]
        assert gammas == [0.0, 0.1, 0.2, 0.5, 0.9, 1.0]
        cells, _ = sweep("fig18a_gamma")
        assert all(m.packets_completed > 0 for m in cells.values())

    def test_error_rate_sweep_scales_faults(self):
        """Fig. 17(b): SECDED vs IntelliNoC on fac, pre-trained, at the
        paper's rates times one acceleration factor."""
        cells, measured = sweep("fig17b_error_rate")
        for name in ("SECDED", "IntelliNoC"):
            lo = cells["error", 1e-10, name].reliability.total_retransmitted_flits
            hi = cells["error", 1e-7, name].reliability.total_retransmitted_flits
            assert hi >= lo
        specs = PaperEvaluator(grid=REDUCED_GRID).specs(["fig17b_error_rate"])
        assert {s.workload.name for s in specs.values()} == {"fac"}
        assert specs["error", 1e-7, "IntelliNoC"].pretrain_cycles == REDUCED_GRID.pretrain
        assert set(measured.values) == {"1e-10", "1e-09", "1e-08", "1e-07"}
