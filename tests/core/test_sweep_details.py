"""The sensitivity sweeps (Figs. 17-18) as slices of the paper grid.

Each sweep is one figure of :class:`~repro.report.paper.PaperEvaluator`:
its points are :data:`~repro.core.experiment.SWEEPS`'s, its cells the
grid's, measured on the reduced grid through the suite's result cache.
"""

from types import SimpleNamespace

import pytest

from repro.core.experiment import REDUCED_GRID, SWEEPS
from repro.metrics.latency import LatencySummary
from repro.metrics.reliability import ReliabilitySummary
from repro.metrics.summary import RunMetrics
from repro.report.paper import TUNING_BENCHMARK, PaperEvaluator

SWEEP_FIGURES = [figure for figure, *_ in SWEEPS.values()]


def sweep_cells(figure):
    """``{point: metrics}`` of one sweep figure's cells."""
    evaluator = PaperEvaluator(grid=REDUCED_GRID, use_cache=True)
    specs = evaluator.specs([figure])
    metrics = evaluator.run_specs(list(specs.values())).metrics
    return {point: m for (_, point), m in zip(specs, metrics)}


def fake_metrics(total_energy=1e-6, cycles=1000, retx=5, delivered=100):
    return RunMetrics(
        technique="IntelliNoC",
        workload="x",
        execution_cycles=cycles,
        packets_completed=50,
        latency=LatencySummary(20.0, 20.0, 30.0, 35.0, 40, 50),
        static_power_w=0.5,
        dynamic_power_w=0.5,
        total_energy_j=total_energy,
        reliability=ReliabilitySummary(
            hop_retransmissions=retx,
            e2e_retransmission_flits=0,
            corrected_flits=0,
            silent_corruptions=0,
            corrupted_packets_delivered=0,
            flits_delivered=delivered,
            mttf_seconds=1.0,
            mean_aging_factor=1.0,
            max_aging_factor=1.0,
        ),
    )


def fig18a_of(points, monkeypatch):
    """Fig. 18(a) rendered from *points* (one metrics per gamma) instead
    of simulated cells."""
    evaluator = PaperEvaluator(grid=REDUCED_GRID)
    report = SimpleNamespace(ok=True, metrics=points)
    monkeypatch.setattr(evaluator, "run_specs", lambda specs, *names: report)
    return evaluator.measure(["fig18a_gamma"])["fig18a_gamma"]


class TestSweepPoint:
    """A point of a sweep figure: one line of its table."""

    def test_edp_delegates_to_metrics(self, monkeypatch):
        """A point's value is its EDP over the tuned point's (gamma 0.9)."""
        points = [fake_metrics(total_energy=(1 + i) * 1e-6) for i in range(6)]
        measured = fig18a_of(points, monkeypatch)
        assert measured.values["0.1"] == pytest.approx(
            points[1].energy_delay_product / points[4].energy_delay_product
        )
        assert measured.values["0.9"] == 1.0

    def test_retransmission_rate(self, monkeypatch):
        points = [fake_metrics(retx=10, delivered=200)] * 6
        measured = fig18a_of(points, monkeypatch)
        line = next(row for row in measured.table.splitlines() if row.startswith("0.9 "))
        assert points[0].reliability.retransmission_rate == pytest.approx(0.05)
        assert line.split("|")[6].strip() == "0.050"


class TestSweepConfiguration:
    def test_time_step_propagates_to_technique(self):
        specs = PaperEvaluator(grid=REDUCED_GRID).specs(["fig17a_timestep"])
        assert [s.technique.rl.time_step for s in specs.values()] == list(
            SWEEPS["time_step"][2]
        )

    def test_default_benchmark_is_blackscholes(self):
        """Section 6.3: the tuning benchmark is blackscholes, and the RL
        sweeps deploy untrained agents."""
        assert TUNING_BENCHMARK == "blackscholes"
        specs = PaperEvaluator(grid=REDUCED_GRID).specs(SWEEP_FIGURES).values()
        assert {s.workload.name for s in specs} == {TUNING_BENCHMARK}
        assert {s.pretrain_cycles for s in specs} == {0}

    def test_epsilon_sweep_includes_extremes(self):
        """Fig. 18(b)'s endpoints are points of the grid and run."""
        cells = sweep_cells("fig18b_epsilon")
        assert {0.0, 1.0} <= set(cells)
        assert all(m.packets_completed > 0 for m in cells.values())

    def test_gamma_one_is_valid(self):
        """gamma = 1 (no discounting) is a point of Fig. 18(a) and runs."""
        assert sweep_cells("fig18a_gamma")[1.0].packets_completed > 0
