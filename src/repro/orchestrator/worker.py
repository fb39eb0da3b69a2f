"""Scenario execution — the one way to run a spec, and the one fan-out.

:func:`simulate_spec` is the only in-process way to turn a
:class:`~repro.scenarios.spec.ScenarioSpec` into a finished, fingerprinted
run; every driver (sweep runner, figure generators, integrity experiments,
trace capture, tests) goes through it.  It builds the job, runs it,
fingerprints the behaviour, and keeps the live job around for callers that
need internals (allocator state, agent overheads).

:func:`map_payloads` is the only fan-out.  It runs an entry point —
:func:`run_payload` for sweeps, :func:`repro.obs.capture.trace_payload` for
trace sweeps — over specs, in this process or over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Entry points speak plain
dicts in both directions (a spec's ``to_dict`` form in, a JSON-safe record
out), so nothing unpicklable — live jobs, metrics recorders, simulation
environments — ever crosses a process boundary, and a crash inside a child
comes back as an error record instead of poisoning the pool.
"""

from __future__ import annotations

import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Sequence

from ..perf import Stopwatch
from ..psarch.job import PSRunResult, PSTrainingJob
from ..scenarios.fingerprint import canonical_json, fingerprint
from ..scenarios.matrix import build_scenario_job
from ..scenarios.spec import ScenarioSpec
from ..sim.failures import FailureInjector

__all__ = ["SimRun", "map_payloads", "outcome_payload", "run_payload",
           "simulate_spec"]


@dataclass
class SimRun:
    """One completed in-process simulation with its live internals."""

    spec: ScenarioSpec
    job: PSTrainingJob
    injector: FailureInjector
    run: PSRunResult
    fingerprint: Dict[str, object]

    def golden_trace(self) -> str:
        """Canonical byte form of the fingerprint (golden-trace contents)."""
        return canonical_json(self.fingerprint)


def simulate_spec(spec: ScenarioSpec, **overrides: object) -> SimRun:
    """Build, run, and fingerprint one scenario in this process.

    ``overrides`` are forwarded to
    :func:`~repro.scenarios.matrix.build_scenario_job` (real compute backend,
    coverage tracking, cohort ``coalesce`` mode, a trace recorder, ...), so
    spec-driven experiments that need more than the declarative knobs still
    route through here.
    """
    job, injector = build_scenario_job(spec, **overrides)
    result = job.run()
    return SimRun(
        spec=spec,
        job=job,
        injector=injector,
        run=result,
        fingerprint=fingerprint(spec, result, injector),
    )


def run_payload(spec_dict: Dict[str, object]) -> Dict[str, object]:
    """Execute one spec (as a plain dict) and return a JSON-safe record.

    Never raises: any failure — an invalid spec, a scenario that crashes
    mid-simulation — is reported as an ``ok=False`` record carrying the
    error and traceback, so one broken scenario cannot take down a sweep.
    """
    watch = Stopwatch().start()
    try:
        sim = simulate_spec(ScenarioSpec.from_dict(spec_dict))
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        return outcome_payload(None, exc, watch.elapsed)
    return outcome_payload(sim, None, watch.elapsed)


def outcome_payload(sim: Optional[SimRun], error: Optional[BaseException],
                    wall_s: float) -> Dict[str, object]:
    """The JSON-safe result record of one execution, success or error.

    Every error record — a spec that failed in :func:`run_payload` or in a
    trace capture, or a child :func:`map_payloads` lost — is built here, so
    they all share one shape.
    """
    if error is not None:
        return {
            "ok": False,
            "error": f"{type(error).__name__}: {error}",
            "traceback": "".join(traceback.format_exception(
                type(error), error, error.__traceback__)),
            "wall_s": wall_s,
        }
    assert sim is not None
    return {
        "ok": True,
        "fingerprint": sim.fingerprint,
        "wall_s": wall_s,
        "engine_events_scheduled": sim.run.engine_events_scheduled,
        "engine_events_processed": sim.run.engine_events_processed,
        "engine_events_physical": sim.run.engine_events_physical,
    }


def map_payloads(entry: Callable[[Dict[str, object]], Dict[str, object]],
                 specs: Sequence[ScenarioSpec],
                 jobs: int) -> Iterator[Dict[str, object]]:
    """Yield ``entry(spec.to_dict())`` for every spec, in spec order.

    With ``jobs`` 1 or a single spec the entry runs in this process, one
    spec at a time; otherwise the specs fan out over a process pool of
    ``min(jobs, len(specs))`` workers.  Either way each record is yielded as
    soon as it and every record before it are done, so a caller can persist
    results as they arrive.  A child the pool loses (``BrokenProcessPool``)
    comes back as an :func:`outcome_payload` error record.
    """
    if jobs <= 1 or len(specs) <= 1:
        for spec in specs:
            yield entry(spec.to_dict())
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        futures = [pool.submit(entry, spec.to_dict()) for spec in specs]
        # Collect in submission order: completion order is scheduling noise,
        # and determinism of every report is part of the contract.
        for future in futures:
            try:
                payload = future.result()
            except Exception as exc:  # noqa: BLE001 - e.g. BrokenProcessPool
                payload = outcome_payload(None, exc, 0.0)
            yield payload
