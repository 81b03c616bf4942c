"""Command-line interface.

Usage::

    python -m repro run --technique intellinoc --benchmark bod
    python -m repro run --benchmark swa --observe out/ --observe-stride 50
    python -m repro run --technique intellinoc --benchmark bod --topology torus
    python -m repro run --scenario aging-cliff --sanitize --benchmark swa
    python -m repro campaign --benchmarks swa bod can --duration 4000
    python -m repro campaign --figures fig10_latency fig13_energy_efficiency
    python -m repro campaign --scenario transient-storm --benchmarks swa
    python -m repro campaign --benchmarks swa --topology cmesh --concentration 4
    python -m repro sweep --knob epsilon
    python -m repro trace --benchmark vips --out vips.jsonl
    python -m repro cache verify
    python -m repro area
    python -m repro verify-paper --jobs 2

``campaign`` and ``sweep`` print slices of the paper's evaluation grid
(:data:`~repro.core.experiment.FULL_GRID`): with no options, the tables
``verify-paper`` writes to ``results/`` from the same cache keys.
``--seed``, ``--duration``, ``--pretrain`` and ``--benchmarks`` default to
the grid's values and override it.  ``run`` runs one cell of that grid,
live, through :mod:`repro.exec.worker`; it and ``trace`` default to the
grid's seed.

Exit codes: 0 success, 1 a cell failed (its post-mortem is in the cache;
rerun the same command after the fix) or a ``verify-paper`` row failed,
2 usage/config error, 75 interrupted after a graceful drain (rerun the
same command to finish the remainder); see docs/resilience.md.

Output discipline: the *results* (metric tables, figure tables) go to
stdout via ``print``; everything diagnostic — progress lines, pre-training
notices, telemetry-artifact confirmations, errors — goes through the
``repro`` :mod:`logging` logger to stderr.  ``--verbose`` raises the level
to DEBUG, ``--quiet`` lowers it to WARNING; the default (INFO) preserves
the classic one-line-per-cell progress stream.

Everything the CLI prints comes from the same public API the examples
use; it exists so a shell user can poke the reproduction without writing
Python.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Any

from repro.analysis.lint_options import add_cli_arguments
from repro.config import TechniqueConfig, all_techniques, technique
from repro.faults.scenario import scenario_names
from repro.noc.topology import registered_topologies
from repro.core import figures
from repro.core.experiment import FULL_GRID, ExperimentRunner
from repro.exec import worker
from repro.exec.engine import EngineOptions
from repro.exec.executors import CellExecutionError
from repro.exec.resilience import (
    EXIT_INTERRUPTED,
    CampaignInterrupted,
    ShutdownFlag,
    graceful_shutdown,
)
from repro.exec.spec import parsec_cell
from repro.telemetry import CampaignTraceSink, SimProfiler, Telemetry, chain_progress
from repro.traffic.parsec import PARSEC_PROFILES
from repro.utils.tables import format_table

_LOG = logging.getLogger("repro")

#: ``run``'s default ``--technique``; ``trace`` writes the trace of its cell.
DEFAULT_TECHNIQUE = "intellinoc"

#: What ``--observe DIR`` leaves in DIR.
EVENTS_FILE = "events.jsonl"
PROFILE_FILE = "profile.json"


def _configure_logging(args: argparse.Namespace) -> None:
    """Route diagnostics through the ``repro`` logger (stderr handler)."""
    if getattr(args, "verbose", False):
        level = logging.DEBUG
    elif getattr(args, "quiet", False):
        level = logging.WARNING
    else:
        level = logging.INFO
    logger = logging.getLogger("repro")
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False


def _add_logging_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug-level diagnostics on stderr",
    )
    group.add_argument(
        "-q", "--quiet", action="store_true",
        help="warnings and errors only (suppress progress lines)",
    )


def _add_common(parser: argparse.ArgumentParser, seed: int, duration: int) -> None:
    parser.add_argument("--seed", type=int, default=seed, help="master seed")
    parser.add_argument(
        "--duration", type=int, default=duration, help="trace length in cycles"
    )
    _add_logging_options(parser)


def _add_sanitize(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize", action="store_true",
        help="enable the NoCSan runtime invariant checks (see docs/analysis.md)",
    )


def _add_fabric_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology", default="mesh", choices=registered_topologies(),
        help="interconnect fabric (default: mesh; see docs/topologies.md)",
    )
    parser.add_argument(
        "--concentration", type=int, default=None, metavar="C",
        help="cores per router for --topology cmesh "
             "(2 or 4; default 4, ignored elsewhere)",
    )
    parser.add_argument(
        "--scenario", default="", choices=[""] + scenario_names(),
        metavar="PACK",
        help="fault-scenario pack to replay during the run "
             f"({', '.join(scenario_names())}; default: none; "
             "see docs/fault_scenarios.md)",
    )


def _fabric_technique(
    tech: TechniqueConfig, args: argparse.Namespace
) -> TechniqueConfig:
    """Re-target a technique's NoC onto the fabric the CLI selected."""
    topology = getattr(args, "topology", "mesh")
    concentration = getattr(args, "concentration", None)
    scenario = getattr(args, "scenario", "")
    if concentration is None:
        concentration = 4 if topology == "cmesh" else 1
    noc = tech.noc
    if (
        topology == noc.topology
        and concentration == noc.concentration
        and scenario == noc.fault_scenario
    ):
        return tech
    return replace(
        tech,
        noc=replace(
            noc,
            topology=topology,
            concentration=concentration,
            fault_scenario=scenario,
        ),
    )


def _apply_sanitize(args: argparse.Namespace) -> None:
    """Export ``--sanitize`` as REPRO_SANITIZE so every network this process
    (and its campaign worker processes) builds picks up the sanitizer."""
    if getattr(args, "sanitize", False):
        os.environ["REPRO_SANITIZE"] = "1"


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Execution-engine knobs shared by campaign and sweep."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run up to N cells in parallel worker processes (default 1)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: ~/.cache/intellinoc-repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache (always re-simulate)",
    )
    parser.add_argument(
        "--observe", default=None, metavar="DIR",
        help=f"append the progress log to DIR/{EVENTS_FILE} and write the "
             f"engine's profile to DIR/{PROFILE_FILE} (docs/observability.md)",
    )


def _print_progress(event) -> None:
    """One stderr line per cell start/finish so long campaigns show life."""
    if event.kind == "done":
        duration = event.duration_s if event.duration_s else event.seconds
        _LOG.info("[%d/%d] %s done in %.1fs",
                  event.completed, event.total, event.spec.label, duration)
    elif event.kind == "cached":
        _LOG.info("[%d/%d] %s (cache hit)",
                  event.completed, event.total, event.spec.label)
    elif event.kind in ("retry", "failed"):
        _LOG.warning("%s %s: %s", event.spec.label, event.kind, event.error)


def _write_profile(profiler: SimProfiler, directory: str) -> None:
    out = profiler.write_chrome_trace(Path(directory) / PROFILE_FILE)
    _LOG.info("wrote profile (%d spans, %d/%d steps sampled) to %s",
              len(profiler.spans), profiler.steps_profiled,
              profiler.steps_seen, out)
    for name, count, total in profiler.summary():
        _LOG.debug("phase %-24s %3dx %8.2fs", name, count, total)


def _cmd_run(args: argparse.Namespace) -> int:
    _apply_sanitize(args)
    telemetry: Telemetry | None = None
    profiler: SimProfiler | None = None
    if args.observe:
        telemetry = Telemetry(trace_stride=args.observe_stride)
        profiler = SimProfiler(stride=args.observe_stride)

    spec = parsec_cell(
        _fabric_technique(technique(args.technique), args),
        args.benchmark,
        args.duration,
        seed=args.seed,
        pretrain_cycles=args.pretrain,
    )
    policy = None
    if spec.pretraining is not None:
        _LOG.info("pre-training RL agents for %d cycles ...", args.pretrain)
        with nullcontext() if profiler is None else profiler.phase(
            "pretrain", cycles=args.pretrain
        ):
            policy = worker.pretrain(spec.pretraining)
    metrics = worker.execute_cell(
        spec, policy, telemetry=telemetry, simprof=profiler
    )
    r = metrics.reliability
    rows = [
        ["execution cycles", metrics.execution_cycles],
        ["packets completed", metrics.packets_completed],
        ["avg latency (cycles)", metrics.latency.mean],
        ["p99 latency (cycles)", metrics.latency.p99],
        ["static power (W)", metrics.static_power_w],
        ["dynamic power (W)", metrics.dynamic_power_w],
        ["energy efficiency (1/J)", metrics.energy_efficiency],
        ["retransmitted flits", r.total_retransmitted_flits],
        ["corrected flits", r.corrected_flits],
        ["MTTF (s, extrapolated)", r.mttf_seconds],
        ["max temperature (K)", metrics.max_temperature_k],
    ]
    if args.scenario:
        rows += [
            ["delivery ratio", r.delivery_ratio],
            ["packets dropped (dead router)", r.packets_dropped_dead_router],
            ["packets dropped (dead link)", r.packets_dropped_dead_link],
            ["packets refused (undeliverable)", r.packets_undeliverable],
            ["routers failed", r.routers_failed],
            ["links failed", r.links_failed],
            ["availability", r.availability],
            ["time-to-recover (cycles)", r.time_to_recover_cycles],
        ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{metrics.technique} on '{args.benchmark}' ({args.duration} cycles)",
    ))
    if metrics.mode_breakdown and metrics.technique == "IntelliNoC":
        print("\nmode breakdown: " + ", ".join(
            f"{m}: {v:.0%}" for m, v in metrics.mode_breakdown.items()
        ))
    if telemetry is not None and profiler is not None:
        path = telemetry.write_trace(Path(args.observe) / EVENTS_FILE)
        _LOG.info("wrote %d events to %s (stride %d, %d dropped)",
                  len(telemetry.events), path, telemetry.trace_stride,
                  telemetry.dropped_events)
        _write_profile(profiler, args.observe)
    return 0


def _report_interrupted(exc: CampaignInterrupted, cached: bool) -> int:
    _LOG.warning("%s", exc)
    if cached:
        _LOG.warning("rerun the same command to finish the remainder")
    else:
        _LOG.warning("without the cache nothing was kept: a rerun starts over")
    return EXIT_INTERRUPTED


def _engine_session(
    args: argparse.Namespace,
    build: Callable[..., EngineOptions],
    run: Callable[[Any], Any],
    render: Callable[[Any, Any], None],
) -> int:
    """Everything ``campaign`` and ``sweep`` do around their driver.

    *build* takes the engine options and returns the driver, *run* executes
    it under the graceful-shutdown handlers and *render* prints what came
    back.  The session owns the profiler, the campaign log, the shutdown
    flag, the failed / interrupted exit codes and the closing and
    reporting of the artefacts.
    """
    _apply_sanitize(args)
    profiler: SimProfiler | None = None
    sink: CampaignTraceSink | None = None
    if args.observe:
        profiler = SimProfiler()
        sink = CampaignTraceSink(
            Path(args.observe) / EVENTS_FILE, clock=profiler.now_s
        )
    flag = ShutdownFlag()
    exit_code = 0
    try:
        driver = build(
            jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
            use_cache=not args.no_cache,
            cancel=flag,
            progress=chain_progress(_print_progress, sink),
            profiler=profiler,
        )
        with graceful_shutdown(flag):
            results = run(driver)
        render(driver, results)
    except CellExecutionError as exc:
        store = driver.engine.store
        _LOG.error("repro: error: %s%s", exc, "" if store is None else (
            f"; post-mortem: {store.failure_path_for(exc.spec)}; finished "
            "cells are cached: rerun the same command after the fix"
        ))
        exit_code = 1
    except CampaignInterrupted as exc:
        exit_code = _report_interrupted(exc, cached=not args.no_cache)
    finally:
        if sink is not None:
            sink.close()
    if sink is not None and profiler is not None:
        _LOG.info("wrote %d campaign events to %s", sink.events_written, sink.path)
        _write_profile(profiler, args.observe)
    return exit_code


def _cmd_campaign(args: argparse.Namespace) -> int:
    def render(runner: ExperimentRunner, results: figures.Results) -> None:
        names = [t.name for t in runner.techniques]
        for figure in args.figures or figures.SUITE_FIGURES:
            table, _ = figures.SUITE_FIGURES[figure](results, names, runner.benchmarks)
            print()
            print(table)
        if args.scenario:
            print()
            print(figures.reliability_table(results, names, runner.benchmarks))

    build = partial(
        ExperimentRunner,
        duration=args.duration,
        seed=args.seed,
        benchmarks=args.benchmarks,
        techniques=[_fabric_technique(t, args) for t in all_techniques()],
        pretrain_cycles=args.pretrain,
    )
    return _engine_session(args, build, ExperimentRunner.run_campaign, render)


#: ``sweep --knob`` name -> the figure of the grid it measures.
SWEEP_FIGURES = {
    "time-step": "fig17a_timestep",
    "error-rate": "fig17b_error_rate",
    "gamma": "fig18a_gamma",
    "epsilon": "fig18b_epsilon",
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.report.paper import PaperEvaluator

    figure = SWEEP_FIGURES[args.knob]
    grid = replace(FULL_GRID, seed=args.seed, tuning_duration=args.duration)
    return _engine_session(
        args, partial(PaperEvaluator, grid=grid),
        lambda evaluator: evaluator.measure([figure]),
        lambda _evaluator, measured: print(measured[figure].table),
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.exec.store import ResultStore

    store = ResultStore(args.cache_dir)
    if args.action == "verify":
        audit = store.audit()
        for entry in audit.corrupt:
            _LOG.warning("corrupt %s artifact %s: %s",
                         entry.kind, entry.path, entry.problem)
        for entry in audit.stale_failures:
            _LOG.info("stale failure post-mortem: %s", entry.path)
        for entry in audit.unreachable:
            _LOG.info("%s: %s", entry.problem, entry.path)
        print(f"checked {audit.checked} artifact(s) in {store.cache_dir}: "
              f"{audit.healthy} healthy, {len(audit.corrupt)} corrupt, "
              f"{len(audit.stale_failures)} stale failure post-mortem(s), "
              f"{len(audit.unreachable)} unreachable")
        return 0 if audit.ok else 1
    corrupt, stale, unreachable = store.prune()
    print(f"pruned {corrupt} corrupt artifact(s), {stale} stale failure "
          f"post-mortem(s) and {unreachable} unreachable artifact(s) "
          f"from {store.cache_dir}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    spec = parsec_cell(
        technique(DEFAULT_TECHNIQUE), args.benchmark, args.duration, seed=args.seed
    )
    trace = worker.build_trace(spec)
    trace.save(args.out)
    print(f"wrote {len(trace)} events ({trace.total_flits} flits, "
          f"{trace.duration} cycles) to {args.out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint

    return lint.run_cli(args)


def _cmd_area(args: argparse.Namespace) -> int:
    from repro.power.area import area_table

    print(area_table()[0])
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    """Measure the full grid, check every row of the paper table, rewrite
    ``results/`` and EXPERIMENTS.md in the working directory."""
    from repro.report import paper

    failed = []

    def render(_evaluator: object, measured: dict) -> None:
        verdicts = paper.evaluate(paper.publish(measured))
        print(paper.verdict_table(verdicts))
        failed.extend(v for v in verdicts if not v.ok)

    code = _engine_session(
        args, paper.PaperEvaluator, paper.PaperEvaluator.measure, render
    )
    if failed:
        _LOG.error("%d row(s) of the paper table FAILED", len(failed))
    return code or (1 if failed else 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="IntelliNoC (ISCA 2019) reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one technique on one benchmark")
    p.add_argument("--technique", default=DEFAULT_TECHNIQUE,
                   choices=[t.name.lower() for t in all_techniques()])
    p.add_argument("--benchmark", default="bod", choices=sorted(PARSEC_PROFILES))
    p.add_argument("--pretrain", type=int, default=0,
                   help="RL pre-training cycles (0 = untrained agents)")
    p.add_argument("--observe", default=None, metavar="DIR",
                   help=f"write the event stream to DIR/{EVENTS_FILE} and the "
                        f"profile to DIR/{PROFILE_FILE} (docs/observability.md)")
    p.add_argument("--observe-stride", type=int, default=1, metavar="N",
                   help="sample dense events and profile steps every N cycles")
    _add_fabric_options(p)
    _add_common(p, FULL_GRID.seed, FULL_GRID.duration)
    _add_sanitize(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "campaign", help="technique x benchmark comparison (Figs. 9-16)"
    )
    p.add_argument("--benchmarks", nargs="+", default=list(FULL_GRID.benchmarks),
                   choices=sorted(PARSEC_PROFILES))
    p.add_argument("--figures", nargs="*", default=None,
                   choices=list(figures.SUITE_FIGURES),
                   help="subset of figures to print (default: all)")
    p.add_argument("--pretrain", type=int, default=FULL_GRID.pretrain,
                   help="RL pre-training cycles")
    _add_fabric_options(p)
    _add_common(p, FULL_GRID.seed, FULL_GRID.duration)
    _add_sanitize(p)
    _add_engine_options(p)
    p.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser("sweep", help="sensitivity sweep (Figs. 17-18)")
    p.add_argument("--knob", required=True, choices=list(SWEEP_FIGURES),
                   help="the IntelliNoC parameter to vary; its values are "
                        "the figure's points")
    _add_common(p, FULL_GRID.seed, FULL_GRID.tuning_duration)
    _add_sanitize(p)
    _add_engine_options(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("cache", help="verify or prune the result cache")
    p.add_argument("action", choices=["verify", "prune"],
                   help="verify: re-hash every result and policy artifact "
                        "and report damage (exit 1 on corruption); prune: "
                        "drop corrupt artifacts, stale failure post-mortems "
                        "and artifacts keyed under another spec schema")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result-cache directory "
                        "(default: ~/.cache/intellinoc-repro)")
    _add_logging_options(p)
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser("trace", help="generate and save a PARSEC-profile trace")
    p.add_argument("--benchmark", default="bod", choices=sorted(PARSEC_PROFILES))
    p.add_argument("--out", required=True, help="output JSON-lines path")
    _add_common(p, FULL_GRID.seed, FULL_GRID.duration)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "lint", help="NoCSan whole-program static analysis (see docs/analysis.md)"
    )
    add_cli_arguments(
        p,
        default_paths=["src", "tests"],
        default_excludes=["tests/analysis/fixtures"],
    )
    _add_logging_options(p)
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("area", help="print the Table 2 area model")
    _add_logging_options(p)
    p.set_defaults(fn=_cmd_area)

    p = sub.add_parser(
        "verify-paper",
        help="measure every figure on the full grid (minutes), check every row "
             "of the paper table, rewrite results/ and EXPERIMENTS.md",
    )
    _add_engine_options(p)
    _add_logging_options(p)
    p.set_defaults(fn=_cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    try:
        return args.fn(args)
    except ValueError as exc:
        _LOG.error("repro: error: %s", exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
