.PHONY: install lint test test-output verify-paper bench-repo bench-pairs bench-test examples clean

install:
	pip install -e .

# NoCSan whole-program pass (docs/analysis.md), by the command line CI's
# `lint` job runs (paths and fixture exclude are `repro lint`'s defaults,
# spelled once in cli.py); mypy runs too when installed.
lint:
	PYTHONPATH=src python -m repro lint --json nocsan.json
	@if python -c "import mypy" 2>/dev/null; then \
		python -m mypy --strict -p repro.exec -p repro.config -p repro.metrics -p repro.telemetry \
		&& python -m mypy -p repro.analysis; \
	else echo "mypy not installed; skipped type check"; fi

test:
	pytest tests/

test-output:
	pytest tests/ 2>&1 | tee test_output.txt

# Measure every figure of the paper on the full grid, check the table of
# repro.report.paper_table, rewrite results/ and EXPERIMENTS.md (minutes
# cold, seconds on a warm cache; EXPERIMENTS.md, "Regenerating").
verify-paper:
	PYTHONPATH=src python -m repro verify-paper

# The repository benchmark (BENCHMARK.json, bench/README.md): all four
# workloads, traced and untraced passes, about 4 minutes.  Compare two
# results with `python3 bench/compare.py before.json after.json`.
BENCH_OUT ?= bench-result.json
bench-repo:
	python3 bench/run.py --seed 7 --out $(BENCH_OUT)

# The protocol for a claimed gain (bench/README.md, "Noise"): the driver's
# contract command run alternately in a checkout of the parent commit and
# in this tree, alternating which goes first.  Prints every pair, each
# side's median and quartiles, and the win count.  A win is a change
# better in the direction BENCHMARK.json's `better` gives for METRIC (one
# of its end-to-end metrics).  About 75 s a pair.
#   make bench-pairs PARENT=/path/to/parent-checkout [WORKLOAD=torus_faults SEED=7 PAIRS=10 METRIC=sim_cycles_per_ref_s]
PARENT ?=
WORKLOAD ?= torus_faults
SEED ?= 7
PAIRS ?= 10
METRIC ?= sim_cycles_per_ref_s
define BENCH_PAIRS_PY
import json, statistics, subprocess, sys
parent, workload, seed, pairs, METRIC = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5]
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
if METRIC not in better:
    sys.exit(f"METRIC={METRIC} is not an end-to-end metric of BENCHMARK.json: {', '.join(better)}")
sign = 1 if better[METRIC] == "higher" else -1
trees = {"parent": parent, "change": "."}
def run(side):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", seed,
         "--seconds", "33", "--trace", "0"],
        cwd=trees[side], capture_output=True, text=True,
    )
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"{side}: no result line\n{done.stderr}")
    if not result["correct"]:
        sys.exit(f"{side}: {result['failed']} of {result['attempted']} operations failed")
    return result["metrics"][METRIC]["value"]
values = {"parent": [], "change": []}
for pair in range(pairs):
    order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
    for side in order:
        values[side].append(run(side))
    p, c = values["parent"][-1], values["change"][-1]
    print(f"pair {pair + 1:2d} ({order[0]} first)  parent {p:10.2f}  change {c:10.2f}  x{c / p:.3f}", flush=True)
spread = {}
for side, v in values.items():
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    spread[side] = (statistics.median(v), q1, q3)
    print(f"{side:<6} median {spread[side][0]:10.2f}  q1 {q1:10.2f}  q3 {q3:10.2f}  ({METRIC}, n={len(v)})")
wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
ties = sum(c == p for p, c in zip(values["parent"], values["change"]))
gap = spread["change"][0] - spread["parent"][0]
print(f"change wins {wins} of {pairs} (ties {ties}, {better[METRIC]} is better); medians differ by {gap:+.2f} "
      f"(x{spread['change'][0] / spread['parent'][0]:.3f}), parent's inter-quartile distance "
      f"{spread['parent'][2] - spread['parent'][1]:.2f}")
endef
export BENCH_PAIRS_PY
bench-pairs:
	@test -f "$(PARENT)/bench/run.py" || { echo "usage: make bench-pairs PARENT=<checkout of the parent commit> [WORKLOAD=$(WORKLOAD) SEED=$(SEED) PAIRS=$(PAIRS) METRIC=$(METRIC)]"; exit 2; }
	@python3 -c "$$BENCH_PAIRS_PY" "$(abspath $(PARENT))" $(WORKLOAD) $(SEED) $(PAIRS) $(METRIC)

# The benchmark's own tests (not part of tier-1 `testpaths`; about 10 s).
bench-test:
	python3 -m pytest bench/tests -q

examples:
	python examples/quickstart.py
	python examples/adaptive_ecc_demo.py
	python examples/fault_injection_study.py

# results/ is generated *and committed* (`make verify-paper` writes it):
# clean leaves it alone.
clean:
	rm -rf .pytest_cache nocsan.json
	find . -name __pycache__ -type d -exec rm -rf {} +
