"""Tests for the command-line interface."""

import json
import logging
import os
import signal

import pytest

from repro.cli import build_parser, main
from repro.config import technique
from repro.core.experiment import FULL_GRID
from repro.exec import EngineOptions
from repro.exec.spec import parsec_cell
from repro.exec.worker import build_trace
from repro.telemetry import EVENTS_SCHEMA, read_events_jsonl
from repro.traffic.trace import Trace


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.technique == "intellinoc"
        assert args.benchmark == "bod"

    def test_simulating_subcommands_default_to_the_grid_seed(self):
        """``run --technique T --benchmark B --pretrain 40000`` is the
        paper grid's cell T/B, and ``trace`` writes that cell's trace."""
        argv = {
            "run": ["run"], "campaign": ["campaign"], "trace": ["trace", "--out", "x"],
            "sweep": ["sweep", "--knob", "gamma"],
        }
        for command, args in argv.items():
            assert build_parser().parse_args(args).seed == FULL_GRID.seed, command

    def test_unknown_technique_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--technique", "magic"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--benchmark", "doom3"])

    def test_retired_surface_stays_retired(self):
        """``repro bench``, the lint cache / process pool, the SARIF
        report, the per-format artefact options and the failure policies
        and per-cell deadline are gone (the yardstick is ``bench/``; every
        lint run is cold and serial; CI reads the JSON report; ``--observe
        DIR`` writes every run artefact; a failed cell stops the campaign,
        and every job bounds its own cycles)."""
        for argv in (
            ["bench"], ["lint", "--cache"], ["lint", "--jobs", "2"],
            ["lint", "--sarif", "x"],
            *(["run", option, "x"] for option in (
                "--trace", "--trace-stride", "--metrics-out", "--profile",
                "--simprof", "--simprof-stride",
            )),
            *([command, option, "x"]
              for command in ("campaign", "sweep", "verify-paper")
              for option in ("--profile", "--campaign-log", "--journal",
                             "--resume", "--failure-policy", "--timeout")),
        ):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2, argv


#: Settable options per subcommand (argparse actions minus ``-h``), as CI's
#: step summary tabulates them: ceilings, so a new knob has to retire one.
OPTION_CEILINGS = {
    "run": 13, "campaign": 15, "sweep": 10, "cache": 4, "trace": 6,
    "lint": 6, "area": 2, "verify-paper": 6,
}

#: Init fields per config dataclass (a knob added as a field counts like a
#: flag), the second table of CI's step summary plus ``EngineOptions``.
FIELD_CEILINGS = {
    "NocConfig": 15, "FaultConfig": 13, "PowerConfig": 21, "RlConfig": 8,
    "TechniqueConfig": 9, "WorkloadSpec": 6, "CellSpec": 6,
    "EngineOptions": 6, "SimulationConfig": 5,
}

#: Parameters of ``Network.__init__`` beside ``self``: a fault or observer
#: hook arrives through an existing one (a scenario event, telemetry).
NETWORK_PARAMETER_CEILING = 7


class TestKnobCount:
    """ROADMAP aim 2: the number of knobs must not grow."""

    def test_options_per_subcommand_do_not_grow(self):
        import argparse

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        counts = {
            name: sum(not isinstance(a, argparse._HelpAction)
                      for a in parser._actions)
            for name, parser in sub.choices.items()
        }
        assert counts.keys() == OPTION_CEILINGS.keys()
        grown = {n: c for n, c in counts.items() if c > OPTION_CEILINGS[n]}
        assert not grown, f"options above their ceiling: {grown}"

    def test_fields_per_config_dataclass_do_not_grow(self):
        import dataclasses

        from repro.config import (
            FaultConfig, NocConfig, PowerConfig, RlConfig, SimulationConfig,
            TechniqueConfig,
        )
        from repro.exec.engine import EngineOptions
        from repro.exec.spec import CellSpec, WorkloadSpec

        counts = {
            cls.__name__: sum(f.init for f in dataclasses.fields(cls))
            for cls in (NocConfig, FaultConfig, PowerConfig, RlConfig,
                        TechniqueConfig, WorkloadSpec, CellSpec, EngineOptions,
                        SimulationConfig)
        }
        assert counts.keys() == FIELD_CEILINGS.keys()
        grown = {n: c for n, c in counts.items() if c > FIELD_CEILINGS[n]}
        assert not grown, f"fields above their ceiling: {grown}"

    def test_network_constructor_parameters_do_not_grow(self):
        import inspect

        from repro.noc.network import Network

        params = list(inspect.signature(Network.__init__).parameters)[1:]
        assert len(params) <= NETWORK_PARAMETER_CEILING, params


class TestCommands:
    def test_run_prints_metrics(self, capsys):
        rc = main(["run", "--technique", "secded", "--benchmark", "swa",
                   "--duration", "1000", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SECDED on 'swa'" in out
        assert "avg latency" in out

    def test_area_matches_table2(self, capsys):
        rc = main(["area"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "119807.0" in out
        assert "-32.7" in out

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "t.jsonl"
        rc = main(["trace", "--benchmark", "swa", "--duration", "1000",
                   "--out", str(out_file)])
        assert rc == 0
        trace = Trace.load(out_file)
        assert len(trace) > 0
        assert "wrote" in capsys.readouterr().out

    def test_trace_writes_the_cells_trace(self, tmp_path, capsys):
        out_file = tmp_path / "t.jsonl"
        assert main(["trace", "--benchmark", "swa", "--duration", "600",
                     "--seed", "3", "--out", str(out_file)]) == 0
        spec = parsec_cell(technique("intellinoc"), "swa", 600, seed=3)
        assert Trace.load(out_file).events == build_trace(spec).events

    def test_sweep_unknown_knob_fails(self, tmp_path):
        """A misspelt knob is rejected before the session opens anything."""
        observe = tmp_path / "observe"
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--knob", "nonsense", "--observe", str(observe)])
        assert exit_info.value.code == 2
        assert not observe.exists()

    def test_sweep_gamma_small(self, capsys):
        """Fig. 18(a)'s six points, on a shorter trace than the grid's."""
        rc = main(["sweep", "--knob", "gamma", "--duration", "300", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Fig. 18(a) - Impact of discount rate" in out
        assert "EDP vs 0.9" in out

    def test_campaign_single_figure(self, capsys):
        rc = main(["campaign", "--benchmarks", "swa", "--duration", "800",
                   "--pretrain", "1000", "--figures", "fig10_latency", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Fig. 10" in out

    def test_campaign_unknown_figure(self, tmp_path, caplog):
        """A misspelt figure is rejected before any cell runs, not after
        the whole campaign has."""
        cache = tmp_path / "cache"
        cache.mkdir()
        caplog.set_level(logging.INFO, logger="repro")
        logger = logging.getLogger("repro")
        logger.addHandler(caplog.handler)
        try:
            with pytest.raises(SystemExit) as exit_info:
                main(["campaign", "--benchmarks", "swa", "--duration", "800",
                      "--pretrain", "500", "--figures", "fig10_latency", "pie-chart",
                      "--cache-dir", str(cache)])
        finally:
            logger.removeHandler(caplog.handler)
        assert exit_info.value.code == 2
        assert list(cache.iterdir()) == []
        assert "[1/" not in caplog.text

    def test_campaign_on_a_fabric_that_refuses_its_config(self, tmp_path, caplog):
        """The fabric's builder, not the config, refuses a concentration it
        cannot build, and the CLI asks it before any cell runs."""
        cache = tmp_path / "cache"
        cache.mkdir()
        caplog.set_level(logging.INFO, logger="repro")
        logger = logging.getLogger("repro")
        logger.addHandler(caplog.handler)
        try:
            rc = main(["campaign", "--topology", "cmesh", "--concentration", "3",
                       "--benchmarks", "swa", "--duration", "800", "--pretrain", "500",
                       "--figures", "fig10_latency", "--cache-dir", str(cache)])
        finally:
            logger.removeHandler(caplog.handler)
        assert rc == 2
        assert "repro: error: cmesh concentration must be 2 or 4" in caplog.text
        assert list(cache.iterdir()) == []
        assert "[1/" not in caplog.text


class TestFabricConcentration:
    """The default concentration is the fabric's own fact, and a fabric
    refuses one it cannot attach: the CLI holds neither."""

    def test_a_fabric_refuses_a_concentration_it_cannot_attach(self, caplog):
        caplog.set_level(logging.INFO, logger="repro")
        logger = logging.getLogger("repro")
        logger.addHandler(caplog.handler)
        try:
            rc = main(["run", "--topology", "torus", "--concentration", "2"])
        finally:
            logger.removeHandler(caplog.handler)
        assert rc == 2
        assert ("repro: error: concentration 2 does not fit torus: "
                "64 nodes on 64 routers") in caplog.text

    def test_cmesh_runs_at_its_own_default(self, capsys):
        argv = ["run", "--topology", "cmesh", "--technique", "secded",
                "--benchmark", "swa", "--duration", "600", "--seed", "2"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--concentration", "4"]) == 0
        assert capsys.readouterr().out == default
        assert "execution cycles" in default


#: ``repro run``'s rows -> the ``RunMetrics`` value each prints.
RUN_ROWS = {
    "execution cycles": lambda m: m.execution_cycles,
    "packets completed": lambda m: m.packets_completed,
    "avg latency (cycles)": lambda m: m.latency.mean,
    "p99 latency (cycles)": lambda m: m.latency.p99,
    "static power (W)": lambda m: m.static_power_w,
    "dynamic power (W)": lambda m: m.dynamic_power_w,
    "energy efficiency (1/J)": lambda m: m.energy_efficiency,
    "retransmitted flits": lambda m: m.reliability.total_retransmitted_flits,
    "corrected flits": lambda m: m.reliability.corrected_flits,
    "MTTF (s, extrapolated)": lambda m: m.reliability.mttf_seconds,
    "max temperature (K)": lambda m: m.max_temperature_k,
}


class TestRunIsACampaignCell:
    """``repro run`` prints what a campaign stores for the same spec."""

    @pytest.mark.parametrize("name,pretrain", [("secded", 0), ("intellinoc", 1500)])
    def test_every_printed_value_is_the_engines(self, name, pretrain, capsys):
        assert main(["run", "--technique", name, "--benchmark", "swa",
                     "--duration", "400", "--pretrain", str(pretrain)]) == 0
        out = capsys.readouterr().out
        spec = parsec_cell(technique(name), "swa", 400, seed=FULL_GRID.seed,
                           pretrain_cycles=pretrain)
        (metrics,) = EngineOptions().run_specs([spec]).metrics
        table, _, breakdown = out.partition("\nmode breakdown: ")
        printed = {
            label.strip(): value
            for label, value in (line.split(" | ") for line in table.splitlines()[4:])
        }
        assert printed.keys() == RUN_ROWS.keys()
        for label, value in RUN_ROWS.items():
            want = value(metrics)
            want = f"{want:.3f}" if isinstance(want, float) else str(want)
            assert printed[label] == want, label
        assert table.startswith(f"{metrics.technique} on 'swa' (400 cycles)")
        assert breakdown == ("" if name == "secded" else ", ".join(
            f"{m}: {v:.0%}" for m, v in metrics.mode_breakdown.items()
        ) + "\n")


class TestEngineOptions:
    def test_campaign_engine_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.no_cache is False

    def test_sweep_accepts_engine_options(self):
        args = build_parser().parse_args(
            ["sweep", "--knob", "gamma",
             "--jobs", "4", "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache is True

    def test_campaign_with_jobs_and_cache(self, tmp_path, capsys):
        argv = ["campaign", "--benchmarks", "swa", "--duration", "800",
                "--pretrain", "1000", "--figures", "fig10_latency", "--seed", "2",
                "--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
        rc = main(argv)
        first = capsys.readouterr().out
        assert rc == 0
        assert "Fig. 10" in first
        # The repeat run is served from the cache and prints the same table.
        rc = main(argv)
        second = capsys.readouterr().out
        assert rc == 0
        assert first == second

    def test_campaign_no_cache(self, capsys):
        rc = main(["campaign", "--benchmarks", "swa", "--duration", "800",
                   "--pretrain", "500", "--figures", "fig10_latency", "--seed", "2",
                   "--no-cache"])
        assert rc == 0
        assert "Fig. 10" in capsys.readouterr().out


class TestResilienceOptions:
    def test_a_failed_cell_exits_one_and_a_rerun_finishes(
        self, tmp_path, monkeypatch, capsys, caplog
    ):
        """One error line names the failed cell and its post-mortem; the
        same command rerun after the fix executes only the unfinished
        cells and prints what a clean run prints."""
        from repro.exec import worker

        execute_cell = worker.execute_cell

        def cp_is_broken(spec, *args, **kwargs):
            if spec.label == "CP/swa":
                raise RuntimeError("broken CP")
            return execute_cell(spec, *args, **kwargs)

        base = ["campaign", "--benchmarks", "swa", "--duration", "600",
                "--pretrain", "0", "--figures", "fig09_speedup", "--seed", "2"]
        assert main(base + ["--no-cache"]) == 0
        clean = capsys.readouterr().out
        cache = tmp_path / "cache"
        argv = base + ["--cache-dir", str(cache)]
        caplog.set_level(logging.INFO, logger="repro")
        logger = logging.getLogger("repro")
        logger.addHandler(caplog.handler)
        try:
            monkeypatch.setattr(worker, "execute_cell", cp_is_broken)
            assert main(argv) == 1
            assert capsys.readouterr().out == ""  # nothing rendered
            errors = [r.getMessage() for r in caplog.records
                      if r.levelno >= logging.ERROR]
            post_mortems = list(cache.rglob("*.failure.json"))
            assert len(errors) == 1 and len(post_mortems) == 1
            assert "CP/swa failed: RuntimeError: broken CP" in errors[0]
            assert f"post-mortem: {post_mortems[0]}" in errors[0]
            assert "rerun the same command after the fix" in errors[0]
            monkeypatch.undo()
            caplog.clear()
            assert main(argv) == 0
            lines = [r.getMessage() for r in caplog.records]
        finally:
            logger.removeHandler(caplog.handler)
        assert capsys.readouterr().out == clean
        assert sum("(cache hit)" in line for line in lines) == 2
        assert sum(" done in " in line for line in lines) == 3

    def test_campaign_journal_then_resume(self, tmp_path, monkeypatch, capsys):
        """The cache is the campaign's journal: interrupted (exit 75), the
        same command rerun prints what an uninterrupted run prints."""
        from repro import cli
        from repro.exec.resilience import EXIT_INTERRUPTED

        def sigterm_after_first_cell(event):
            if event.kind == "done" and event.spec.job == "cell":
                os.kill(os.getpid(), signal.SIGTERM)

        base = ["campaign", "--benchmarks", "swa", "--duration", "600",
                "--pretrain", "0", "--figures", "fig09_speedup", "--seed", "2"]
        assert main(base + ["--no-cache"]) == 0
        uninterrupted = capsys.readouterr().out
        again = base + ["--cache-dir", str(tmp_path / "cache")]
        monkeypatch.setattr(cli, "_print_progress", sigterm_after_first_cell)
        assert main(again) == EXIT_INTERRUPTED
        assert capsys.readouterr().out == ""  # nothing rendered
        monkeypatch.undo()
        assert main(again) == 0
        assert capsys.readouterr().out == uninterrupted


class TestSmokes:
    """What CI's retired smoke jobs ran that nothing else in tier-1 does,
    through ``main``: the non-mesh fabrics and the scenario packs under
    ``--sanitize``, the ``--observe`` artefacts written and read back, and
    a campaign's reliability table."""

    @pytest.mark.parametrize("argv", [
        ["run", "--topology", "torus"],
        ["run", "--topology", "cmesh"],
        ["run", "--scenario", "aging-cliff"],
        ["run", "--scenario", "link-rot"],
        ["campaign", "--scenario", "link-rot"],
    ], ids=" ".join)
    def test_sanitized_run_writes_its_artefacts(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        # --sanitize exports REPRO_SANITIZE into os.environ; setting it
        # first is what makes monkeypatch restore it (delenv on an unset
        # name records nothing), so it cannot leak into later tests.
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        monkeypatch.setenv("REPRO_SANITIZE_DIR", str(tmp_path / "sanitizer"))
        observe = tmp_path / "observe"
        if argv[0] == "run":
            argv = argv + [
                "--technique", "intellinoc", "--benchmark", "swa",
                "--duration", "800", "--seed", "2", "--observe-stride", "10",
            ]
        else:
            argv = argv + [
                "--benchmarks", "swa", "--duration", "600", "--pretrain", "0",
                "--figures", "fig10_latency", "--no-cache",
            ]
        rc = main(argv + ["--sanitize", "--observe", str(observe)])
        out = capsys.readouterr().out
        assert rc == 0
        assert not (tmp_path / "sanitizer").exists()  # no violation snapshot
        events = read_events_jsonl(observe / "events.jsonl")
        assert events[0] == {"kind": "header", "schema": EVENTS_SCHEMA,
                             "scope": argv[0]}
        tracks = {e["tid"] for e in _profile(observe)["traceEvents"]}
        if argv[0] == "run":
            assert events[-1]["kind"] == "final"
            assert all("cycle" in e for e in events[1:])
            assert tracks == {0, 1}
            assert ("delivery ratio" in out) == ("--scenario" in argv)
        else:
            assert [e["kind"] for e in events].count("done") == 5
            assert all("t_s" in e for e in events[1:])
            assert tracks == {0}
            assert "Delivery accounting under fault scenarios" in out

    def test_resumed_campaign_continues_the_log(
        self, tmp_path, monkeypatch, capsys
    ):
        """Interrupted after its first cell, then rerun into the same DIR:
        one log, two sessions, each opened by its header, and the rerun
        serves the finished cell from the cache."""
        from repro import cli
        from repro.exec.resilience import EXIT_INTERRUPTED

        def sigterm_after_first_cell(event):
            if event.kind == "done" and event.spec.job == "cell":
                os.kill(os.getpid(), signal.SIGTERM)

        observe = tmp_path / "observe"
        base = ["campaign", "--benchmarks", "swa", "--duration", "600",
                "--pretrain", "0", "--figures", "fig09_speedup", "--seed", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--observe", str(observe)]
        monkeypatch.setattr(cli, "_print_progress", sigterm_after_first_cell)
        assert main(base) == EXIT_INTERRUPTED
        monkeypatch.undo()
        assert main(base) == 0
        kinds = [e["kind"] for e in read_events_jsonl(observe / "events.jsonl")]
        assert kinds.count("header") == 2
        assert kinds.index("cached") > kinds.index("header", 1)
        assert _profile(observe)["traceEvents"]


def _profile(observe):
    return json.loads((observe / "profile.json").read_text())


class TestEngineSession:
    """What ``campaign`` and ``sweep`` share around their driver."""

    def _session(self, tmp_path, run):
        from repro.cli import _engine_session
        from repro.exec.engine import EngineOptions

        args = build_parser().parse_args(
            ["sweep", "--knob", "gamma", "--no-cache",
             "--observe", str(tmp_path)]
        )
        rendered = []
        rc = _engine_session(
            args, EngineOptions, run, lambda driver, out: rendered.append(out)
        )
        # Whatever the outcome, the artefacts are closed and written.
        assert (tmp_path / "events.jsonl").exists()
        assert (tmp_path / "profile.json").exists()
        return rc, rendered

    def test_clean_run_renders_and_exits_zero(self, tmp_path):
        assert self._session(tmp_path, lambda d: "out") == (0, ["out"])

    def test_a_failed_cell_exits_one_without_rendering(self, tmp_path):
        from repro.config import SECDED_BASELINE
        from repro.exec.executors import CellExecutionError
        from repro.exec.spec import parsec_cell

        def run(driver):
            spec = parsec_cell(SECDED_BASELINE, "swa", 100)
            raise CellExecutionError(spec, "RuntimeError: boom")

        assert self._session(tmp_path, run) == (1, [])

    def test_interrupt_exits_resumable_without_rendering(self, tmp_path):
        from repro.exec.resilience import EXIT_INTERRUPTED, CampaignInterrupted

        def run(driver):
            assert driver.cancel is not None and not driver.cancel.is_set()
            raise CampaignInterrupted("SIGINT", completed=1, total=2)

        assert self._session(tmp_path, run) == (EXIT_INTERRUPTED, [])
        assert EXIT_INTERRUPTED == 75


class TestCacheCommand:
    def _seed_store(self, cache_dir):
        from repro.config import SECDED_BASELINE
        from repro.exec.spec import parsec_cell
        from repro.exec.store import ResultStore

        store = ResultStore(cache_dir)
        spec = parsec_cell(SECDED_BASELINE, "swa", 1000, seed=7)
        store.put(spec, {"metrics": {"stub": True}})
        return store, spec

    def test_verify_healthy_cache_exits_zero(self, tmp_path, capsys):
        self._seed_store(tmp_path / "cache")
        rc = main(["cache", "verify", "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 healthy" in out

    def test_verify_corrupt_cache_exits_one(self, tmp_path, capsys):
        store, spec = self._seed_store(tmp_path / "cache")
        store.path_for(spec).write_text("{broken")
        rc = main(["cache", "verify", "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "1 corrupt" in out

    def test_prune_heals_the_cache(self, tmp_path, capsys):
        store, spec = self._seed_store(tmp_path / "cache")
        store.path_for(spec).write_text("{broken")
        rc = main(["cache", "prune", "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert "pruned 1 corrupt" in capsys.readouterr().out
        assert main(
            ["cache", "verify", "--cache-dir", str(tmp_path / "cache")]
        ) == 0
