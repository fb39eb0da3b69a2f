# Developer entry points.  Everything runs from the source tree (no install
# needed); PYTHONPATH is set per-target so the targets work in offline
# environments too.

PYTHON ?= python
PYTHONPATH_PREFIX = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

## Parallel worker processes for orchestrated sweeps (python -m repro).
JOBS ?= 2

.PHONY: test tier1 fast lint golden golden-check golden-update sweep bench-smoke trace-smoke serve-smoke examples figure-rows ci

## Full tier-1 suite (what the PR gate runs): unit + integration + property +
## golden traces + benchmarks.
test:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -x -q

## The checks .github/workflows/ci.yml runs, in the same order — one local
## command to know the gate will pass before pushing.  CI's `git diff
## --exit-code` after the suite is left out: a working tree usually has edits.
ci: lint test golden-check examples trace-smoke serve-smoke

## Static analysis: the determinism & sim-safety linter (AST rules DET/SIM,
## cross-artifact CON checks) against the committed lint-baseline.json, plus
## ruff as a second syntax/undefined-name layer where it is installed (CI
## always has it; offline dev environments may not).
lint:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro lint src/repro
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping the second lint layer (CI runs it)"; \
	fi

## Only the tests/ tree (skips the benchmark harness).
tier1:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest tests -q -m tier1

## Tight edit loop: tier-1 without the heavyweight tail.
fast:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest tests -q -m "tier1 and not slow"

## Re-check every registered scenario against its golden trace.
golden:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest tests/golden -q

## Byte-identity gate (also run in CI): regenerate every golden trace through
## the parallel orchestrator path and fail on any diff — fingerprint drift
## can never merge silently.
golden-check:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro golden-update --check --jobs $(JOBS)

## Deliberately regenerate the golden traces after an intended behaviour
## change — through the parallel orchestrator CLI — then re-verify against
## the serial pytest path.  Review the resulting diff like any code change.
golden-update:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro golden-update --jobs $(JOBS)
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest tests/golden -q

## Sweep the full scenario registry through the orchestrator (parallel,
## cached in .repro-cache/).  Narrow with e.g. `make sweep JOBS=4`.
sweep:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro sweep --jobs $(JOBS)

## Tracing smoke (run in CI): trace one autoscaled scenario, validate the
## Chrome trace-event JSON against the schema, and assert a non-empty
## autoscaler decision log (--validate does both checks).
trace-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro trace elastic-server-queue-autoscale \
		--trace-dir .repro-traces --validate

## Serving smoke (run in CI): run the bursty overload scenario end to end and
## assert the protection layers actually engaged — a nonzero shed rate for
## both reasons, a measured p99 in the fingerprint, and the admission bound
## held.  Plus the sweep byte-identity and exactly-once-under-promotion
## checks that live in the same file.
serve-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest tests/integration/test_serve_smoke.py -q

## Run every script under examples/ end to end, each in a fresh process.
## tests/unit/test_examples.py only imports them; this runs their main().
## The result store goes to a throwaway directory, so nothing writes
## .repro-cache/.  Kept out of tier-1: the scripts take ~10 s together.
examples:
	@cache=$$(mktemp -d) && trap 'rm -rf "$$cache"' EXIT && \
	for script in examples/*.py; do \
		echo ">>> $$script"; \
		REPRO_CACHE_DIR=$$cache $(PYTHONPATH_PREFIX) $(PYTHON) $$script || exit 1; \
	done

## The paper's figure and table rows the benchmark harness prints, and
## nothing else: the perf tests (which print wall times) are deselected and
## the pytest summary line (which carries one) is dropped, so two commits'
## outputs diff cleanly.  Exits with the harness's status.
figure-rows:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT; \
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks -q -s -p no:randomly \
		--benchmark-disable -k "not test_perf" > "$$out"; status=$$?; \
	sed '$$d' "$$out"; exit $$status

## Perf floor on its own: the smoke benchmarks assert absolute events/sec
## floors and wall-clock budgets sized for slow shared runners — a real
## engine regression (accidental O(n^2), coalescing disabled, GC storm)
## fails; normal noise does not.  CI needs no separate step for it: the
## tier-1 suite (`make test`) collects benchmarks/ and runs this file.
bench-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks/test_perf_smoke.py -q -s
