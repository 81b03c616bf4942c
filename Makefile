.PHONY: install lint lint-baseline test bench bench-repo bench-test perf figures examples clean

install:
	pip install -e .

# NoCSan whole-program pass (docs/analysis.md); mypy runs too when installed.
lint:
	PYTHONPATH=src python -m repro.analysis.lint src tests benchmarks \
		--exclude tests/analysis/fixtures \
		--baseline lint-baseline.json --cache --stats
	@python -c "import mypy" 2>/dev/null \
		&& python -m mypy --strict -p repro.exec -p repro.config -p repro.metrics -p repro.telemetry \
		&& python -m mypy -p repro.analysis -p repro.perf \
		|| echo "mypy not installed; skipped type check"

# Accept the current NoCSan findings into the committed baseline.
lint-baseline:
	PYTHONPATH=src python -m repro.analysis.lint src tests benchmarks \
		--exclude tests/analysis/fixtures \
		--baseline lint-baseline.json --update-baseline

test:
	pytest tests/

test-output:
	pytest tests/ 2>&1 | tee test_output.txt

bench:
	pytest benchmarks/ --benchmark-only

# Append a cycle-throughput record to BENCH_cycle_throughput.json and
# gate it against the previous comparable record (docs/observability.md).
perf:
	PYTHONPATH=src python -m repro bench --check

# The repository benchmark (BENCHMARK.json, bench/README.md): all four
# workloads, traced and untraced passes, about 4 minutes.  Compare two
# results with `python3 bench/compare.py before.json after.json`.
BENCH_OUT ?= bench-result.json
bench-repo:
	python3 bench/run.py --seed 7 --out $(BENCH_OUT)

# The benchmark's own tests (not part of tier-1 `testpaths`; about 10 s).
bench-test:
	python3 -m pytest bench/tests -q

bench-output:
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Regenerate one paper figure, e.g. `make fig FIG=13`
fig:
	pytest benchmarks/bench_fig$(FIG)*.py --benchmark-only

examples:
	python examples/quickstart.py
	python examples/adaptive_ecc_demo.py
	python examples/fault_injection_study.py

clean:
	rm -rf results/*.txt .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
