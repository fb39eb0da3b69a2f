"""Trace capture drivers: run a scenario with a live recorder and export.

:func:`capture_trace` is the in-process driver — run the scenario through
:func:`~repro.orchestrator.worker.simulate_spec` with a
:class:`~repro.obs.recorder.TraceRecorder` attached, and export both trace
forms.  :func:`trace_payload` is the entry point :func:`run_trace_sweep`
hands to :func:`~repro.orchestrator.worker.map_payloads`, the fan-out sweeps
use too: the exported *strings* cross the process boundary, so the bytes a
parallel sweep writes are — by construction — the bytes the child
serialized, identical to a serial run of the same spec.

Traces are always regenerated by re-simulating the spec: simulation is
deterministic, so a trace for a cached sweep result is reproduced exactly
from the spec alone (the result store keeps fingerprints, not event streams).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..perf import Stopwatch
from ..scenarios.spec import ScenarioSpec
from .export import export_chrome_trace, export_jsonl
from .recorder import TraceRecorder

__all__ = ["TraceCapture", "capture_trace", "trace_payload", "run_trace_sweep"]


@dataclass
class TraceCapture:
    """One traced run: the live recorder plus both exported forms."""

    spec: ScenarioSpec
    recorder: TraceRecorder
    fingerprint: Dict[str, object]
    jsonl: str
    chrome: str
    wall_s: float

    @property
    def decisions(self) -> int:
        """Autoscaler decision records in the trace."""
        return len(self.recorder.decisions)


def capture_trace(spec: ScenarioSpec, coalesce: Optional[bool] = None,
                  ) -> TraceCapture:
    """Simulate ``spec`` with tracing enabled; returns the exported trace.

    ``coalesce`` overrides the engine's cohort-coalescing mode (None = the
    default); traces are byte-identical either way — pinned by the
    determinism tests.
    """
    from ..orchestrator.hashing import spec_key
    from ..orchestrator.worker import simulate_spec

    recorder = TraceRecorder()
    watch = Stopwatch().start()
    sim = simulate_spec(spec, recorder=recorder, coalesce=coalesce)
    key = spec_key(spec)
    return TraceCapture(
        spec=spec,
        recorder=recorder,
        fingerprint=sim.fingerprint,
        jsonl=export_jsonl(recorder, spec.name, spec_key=key),
        chrome=export_chrome_trace(recorder, spec.name),
        wall_s=watch.elapsed,
    )


def trace_payload(spec_dict: Dict[str, object]) -> Dict[str, object]:
    """Trace one spec (as a plain dict) and return a JSON-safe record.

    Never raises — like :func:`repro.orchestrator.worker.run_payload`, a
    failure comes back as that module's ``outcome_payload`` error record, so
    a broken scenario cannot take down a trace sweep.
    """
    from ..orchestrator.worker import outcome_payload

    watch = Stopwatch().start()
    try:
        spec = ScenarioSpec.from_dict(spec_dict)
        capture = capture_trace(spec)
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        return outcome_payload(None, exc, watch.elapsed)
    return {
        "ok": True,
        "name": spec.name,
        "jsonl": capture.jsonl,
        "chrome": capture.chrome,
        "decisions": capture.decisions,
        "counts": capture.recorder.counts(),
        "wall_s": watch.elapsed,
    }


def run_trace_sweep(specs: Sequence[ScenarioSpec],
                    jobs: Optional[int] = None) -> List[Dict[str, object]]:
    """Trace every spec; payloads come back in spec submission order.

    Fans out through the sweep runner's
    :func:`~repro.orchestrator.worker.map_payloads` — each scenario's trace
    is produced wholly inside one process and returned as finished strings,
    so worker count cannot affect a single byte of output.
    """
    from ..orchestrator.runner import resolve_jobs
    from ..orchestrator.worker import map_payloads

    return list(map_payloads(trace_payload, list(specs), resolve_jobs(jobs)))
