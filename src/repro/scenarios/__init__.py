"""Declarative scenario subsystem with golden-trace fingerprints.

One :class:`ScenarioSpec` describes one operating condition — cluster
topology, contention/straggler pattern, failure trace, workload scale, method
and seed — as serializable data.  The named registry holds the built-in
matrix (dedicated/non-dedicated, transient/persistent stragglers, eviction
storms, checkpoint-free failover, heterogeneous hardware, 120-worker scale),
and :func:`all_scenarios` selects from it by tag; :func:`build_scenario_job`
turns a spec into a runnable job; and :func:`fingerprint` reduces each
deterministic run to a compact golden trace pinned under
``tests/golden/traces/``.  Running specs — one in-process
(:func:`repro.orchestrator.simulate_spec`) or many in parallel and cached
(:class:`repro.orchestrator.SweepRunner`) — is the orchestrator's job.
"""

from .spec import FailureEvent, FailureTraceSpec, ScenarioSpec, TopologySpec
from .fingerprint import canonical_json, fingerprint, series_digest
from .matrix import build_scenario_job
from .registry import (
    SCENARIOS,
    all_scenarios,
    get_scenario,
    has_tags,
    register_scenario,
    scenario_names,
)

__all__ = [
    "FailureEvent",
    "FailureTraceSpec",
    "SCENARIOS",
    "ScenarioSpec",
    "TopologySpec",
    "all_scenarios",
    "build_scenario_job",
    "canonical_json",
    "fingerprint",
    "get_scenario",
    "has_tags",
    "register_scenario",
    "scenario_names",
    "series_digest",
]
