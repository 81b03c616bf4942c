"""Tests for the command-line interface."""

import json
import logging

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.technique == "intellinoc"
        assert args.benchmark == "bod"

    def test_unknown_technique_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--technique", "magic"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--benchmark", "doom3"])

    def test_retired_surface_stays_retired(self):
        """``repro bench``, the lint cache / process pool and the SARIF
        report are gone (the yardstick is ``bench/``; every lint run is
        cold and serial; CI reads the JSON report)."""
        for argv in (
            ["bench"], ["lint", "--cache"], ["lint", "--jobs", "2"],
            ["lint", "--sarif", "x"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2, argv


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
        from repro.traffic.trace import Trace

        trace = Trace.load(out_file)
        assert len(trace) > 0
        assert "wrote" in capsys.readouterr().out

    def test_sweep_unknown_knob_fails(self, tmp_path):
        """A misspelt knob is rejected before the session opens anything."""
        log = tmp_path / "events.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--knob", "nonsense", "--values", "1",
                  "--campaign-log", str(log)])
        assert exit_info.value.code == 2
        assert not log.exists()

    def test_sweep_gamma_small(self, capsys):
        rc = main(["sweep", "--knob", "gamma", "--values", "0.9",
                   "--duration", "800", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Sensitivity sweep" in out

    def test_campaign_single_figure(self, capsys):
        rc = main(["campaign", "--benchmarks", "swa", "--duration", "800",
                   "--pretrain", "1000", "--figures", "latency", "--seed", "2"])
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
                      "--pretrain", "500", "--figures", "latency", "pie-chart",
                      "--cache-dir", str(cache)])
        finally:
            logger.removeHandler(caplog.handler)
        assert exit_info.value.code == 2
        assert list(cache.iterdir()) == []
        assert "[1/" not in caplog.text


class TestEngineOptions:
    def test_campaign_engine_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.no_cache is False

    def test_sweep_accepts_engine_options(self):
        args = build_parser().parse_args(
            ["sweep", "--knob", "gamma", "--values", "0.9",
             "--jobs", "4", "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache is True

    def test_campaign_with_jobs_and_cache(self, tmp_path, capsys):
        argv = ["campaign", "--benchmarks", "swa", "--duration", "800",
                "--pretrain", "1000", "--figures", "latency", "--seed", "2",
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
                   "--pretrain", "500", "--figures", "latency", "--seed", "2",
                   "--no-cache"])
        assert rc == 0
        assert "Fig. 10" in capsys.readouterr().out


class TestResilienceOptions:
    def test_campaign_resilience_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.failure_policy == "abort"
        assert args.timeout is None
        assert args.journal is None
        assert args.resume is None

    def test_campaign_accepts_resilience_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--failure-policy", "quarantine",
             "--timeout", "5.5", "--journal", "c.jsonl"]
        )
        assert args.failure_policy == "quarantine"
        assert args.timeout == 5.5
        assert args.journal == "c.jsonl"

    def test_unknown_failure_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--failure-policy", "explode"]
            )

    def test_campaign_journal_then_resume(self, tmp_path, capsys):
        journal = tmp_path / "c.jsonl"
        base = ["campaign", "--benchmarks", "swa", "--duration", "600",
                "--pretrain", "0", "--figures", "speedup", "--seed", "2",
                "--cache-dir", str(tmp_path / "cache")]
        rc = main(base + ["--journal", str(journal)])
        first = capsys.readouterr().out
        assert rc == 0
        assert journal.exists()
        # Resuming a *finished* campaign re-executes nothing and reprints
        # the same tables from the journal + cache.
        rc = main(base + ["--resume", str(journal)])
        second = capsys.readouterr().out
        assert rc == 0
        assert first == second

    def test_resume_foreign_journal_is_a_config_error(self, tmp_path, capsys):
        journal = tmp_path / "c.jsonl"
        base = ["campaign", "--benchmarks", "swa", "--duration", "600",
                "--pretrain", "0", "--figures", "speedup", "--seed", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(base + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        # Same journal, different campaign (other seed): manifest mismatch.
        rc = main(["campaign", "--benchmarks", "swa", "--duration", "600",
                   "--pretrain", "0", "--figures", "speedup", "--seed", "3",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--resume", str(journal)])
        assert rc == 2


    def test_resume_without_a_store_is_a_config_error(self, tmp_path, capsys):
        """The journal holds hashes, the store payloads: without a store a
        resume could serve nothing, only re-simulate the whole grid."""
        journal = tmp_path / "c.jsonl"
        base = ["campaign", "--benchmarks", "swa", "--duration", "600",
                "--pretrain", "0", "--figures", "speedup", "--seed", "2"]
        assert main(base + ["--cache-dir", str(tmp_path / "cache"),
                            "--journal", str(journal)]) == 0
        capsys.readouterr()
        written = journal.read_text()
        rc = main(base + ["--no-cache", "--resume", str(journal)])
        assert rc == 2
        assert capsys.readouterr().out == ""  # nothing ran, nothing rendered
        assert journal.read_text() == written


class TestSmokes:
    """What CI's retired smoke jobs ran that nothing else in tier-1 does,
    through ``main``: the non-mesh fabrics and the scenario packs under
    ``--sanitize``, every artefact flag of ``run`` written and read back,
    and a campaign's ``--campaign-log`` and reliability table."""

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
        from repro.telemetry.sinks import read_events_jsonl

        # --sanitize exports REPRO_SANITIZE into os.environ; setting it
        # first is what makes monkeypatch restore it (delenv on an unset
        # name records nothing), so it cannot leak into later tests.
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        monkeypatch.setenv("REPRO_SANITIZE_DIR", str(tmp_path / "sanitizer"))
        profile = tmp_path / "profile.json"
        if argv[0] == "run":
            jsonl, prom = tmp_path / "trace.jsonl", tmp_path / "metrics.prom"
            simprof = tmp_path / "simprof.json"
            argv = argv + [
                "--technique", "intellinoc", "--benchmark", "swa",
                "--duration", "800", "--seed", "2",
                "--trace", str(jsonl), "--trace-stride", "50",
                "--metrics-out", str(prom),
                "--simprof", str(simprof), "--simprof-stride", "10",
            ]
        else:
            jsonl = tmp_path / "campaign-events.jsonl"
            argv = argv + [
                "--benchmarks", "swa", "--duration", "600", "--pretrain", "0",
                "--figures", "latency", "--no-cache",
                "--campaign-log", str(jsonl),
            ]
        rc = main(argv + ["--sanitize", "--profile", str(profile)])
        out = capsys.readouterr().out
        assert rc == 0
        assert not (tmp_path / "sanitizer").exists()  # no violation snapshot
        events = read_events_jsonl(jsonl)
        assert events and all("kind" in e for e in events)
        assert json.loads(profile.read_text())["traceEvents"]
        if argv[0] == "run":
            assert json.loads(simprof.read_text())["traceEvents"]
            assert "# TYPE" in prom.read_text()
            assert ("delivery ratio" in out) == ("--scenario" in argv)
        else:
            assert [e["kind"] for e in events].count("done") == 5
            assert "Delivery accounting under fault scenarios" in out


class TestEngineSession:
    """What ``campaign`` and ``sweep`` share around their driver."""

    def _session(self, tmp_path, run):
        from repro.cli import _engine_session
        from repro.exec.engine import EngineOptions

        args = build_parser().parse_args(
            ["sweep", "--knob", "gamma", "--values", "1", "--no-cache",
             "--profile", str(tmp_path / "p.json"),
             "--campaign-log", str(tmp_path / "log.jsonl")]
        )
        rendered = []
        rc = _engine_session(
            args, EngineOptions, run, lambda driver, out: rendered.append(out)
        )
        # Whatever the outcome, the artefacts are closed and written.
        assert (tmp_path / "log.jsonl").exists()
        assert (tmp_path / "p.json").exists()
        return rc, rendered

    def test_clean_run_renders_and_exits_zero(self, tmp_path):
        assert self._session(tmp_path, lambda d: "out") == (0, ["out"])

    def test_quarantined_cells_exit_partial(self, tmp_path):
        from repro.config import SECDED_BASELINE
        from repro.exec.resilience import EXIT_PARTIAL, CellFailure
        from repro.exec.spec import parsec_cell

        cell = CellFailure(parsec_cell(SECDED_BASELINE, "swa", 100), "boom")
        rc, rendered = self._session(
            tmp_path, lambda d: d.engine.quarantined.append(cell)
        )
        assert rc == EXIT_PARTIAL == 3
        assert rendered == [None]  # partial results are still rendered

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
