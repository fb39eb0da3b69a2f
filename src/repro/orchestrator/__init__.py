"""Parallel sweep orchestrator (``repro.orchestrator``).

The execution subsystem behind scenario sweeps:

* :func:`simulate_spec` — the only in-process way to build, run, and
  fingerprint one :class:`~repro.scenarios.spec.ScenarioSpec`; its
  :class:`SimRun` keeps the live job (:mod:`repro.orchestrator.worker`).
* :class:`SweepRunner` — the only way to run many specs: cache lookup, then
  one fan-out (:func:`~repro.orchestrator.worker.map_payloads`, shared with
  trace sweeps) with deterministic result ordering and per-spec failure
  isolation (:mod:`repro.orchestrator.runner`).
* :class:`ResultStore` — a content-addressed JSONL store keyed by
  :func:`spec_key` (spec plus :func:`code_digest`), so re-running an
  unchanged scenario under unchanged code is a cache hit that skips
  simulation entirely (:mod:`repro.orchestrator.store`).
* :func:`expand` / :func:`expand_registry` — grid combinators deriving
  uniquely named spec variants across methods / seeds / scales / cluster
  sizes (:mod:`repro.orchestrator.grid`).
* ``python -m repro`` — the CLI over all of it
  (:mod:`repro.orchestrator.cli`).

Determinism contract: a parallel sweep's fingerprints are byte-identical to a
serial run's — the golden-trace suite holds the orchestrator to it.
"""

from .grid import expand, expand_registry
from .hashing import code_digest, spec_key
from .runner import (
    AUTO_STORE,
    JOBS_ENV,
    SweepError,
    SweepOutcome,
    SweepReport,
    SweepRunner,
    resolve_jobs,
)
from .store import CACHE_DIR_ENV, ResultStore, default_store_path
from .worker import SimRun, run_payload, simulate_spec

__all__ = [
    "AUTO_STORE",
    "CACHE_DIR_ENV",
    "JOBS_ENV",
    "ResultStore",
    "SimRun",
    "SweepError",
    "SweepOutcome",
    "SweepReport",
    "SweepRunner",
    "code_digest",
    "default_store_path",
    "expand",
    "expand_registry",
    "resolve_jobs",
    "run_payload",
    "simulate_spec",
    "spec_key",
]
