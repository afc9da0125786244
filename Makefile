# Convenience targets for the nucleus-decomposition reproduction.

PYTHON ?= python3

.PHONY: install test bench profile benchmarks examples experiments lint \
	sanitize clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Perf trajectory: run the pinned suite, the baseline (competitor)
# suite, the hierarchy suite and the sharded suite on the default path
# (the batch kernels) and on the scalar reference oracles, gate against
# the committed baseline, and refresh BENCH_nucleus.json with the
# default-path payload (commit it when a perf PR moves the numbers on
# purpose; the reference payload lands in BENCH_nucleus.reference.json).
bench:
	PYTHONPATH=src $(PYTHON) tools/bench_trajectory.py \
		--engine-gate --min-listing-speedup 3 \
		--min-baseline-speedup 3 \
		--min-hierarchy-speedup 3 \
		--min-comm-reduction 1.3 \
		--compare BENCH_nucleus.json --output BENCH_nucleus.json

profile:
	PYTHONPATH=src $(PYTHON) -m repro.cli profile --dataset dblp \
		--r 2 --s 3 -o trace_dblp_2_3.json

benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

experiments:
	$(PYTHON) tools/generate_experiments.py

lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests; \
	else \
		echo "ruff not installed; skipping style checks"; \
	fi
	PYTHONPATH=src $(PYTHON) -m repro.cli lint src/repro

sanitize:
	PYTHONPATH=src $(PYTHON) -m repro.cli sanitize

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
