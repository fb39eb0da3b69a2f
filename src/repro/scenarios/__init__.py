"""Declarative scenario subsystem with golden-trace fingerprints.

One :class:`ScenarioSpec` describes one operating condition — cluster
topology, contention/straggler pattern, failure trace, workload scale, method
and seed — as serializable data.  The named registry holds the built-in
matrix (dedicated/non-dedicated, transient/persistent stragglers, eviction
storms, checkpoint-free failover, heterogeneous hardware, 120-worker scale);
:class:`ScenarioMatrix` sweeps any subset through the orchestrator; and
:func:`fingerprint` reduces each deterministic run to a compact golden trace
pinned under ``tests/golden/traces/``.
"""

from .spec import FailureEvent, FailureTraceSpec, ScenarioSpec, TopologySpec
from .fingerprint import canonical_json, fingerprint, series_digest
from .matrix import (
    ScenarioMatrix,
    ScenarioResult,
    build_scenario_job,
    run_scenario,
)
from .registry import (
    SCENARIOS,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)

__all__ = [
    "FailureEvent",
    "FailureTraceSpec",
    "ScenarioMatrix",
    "ScenarioResult",
    "SCENARIOS",
    "ScenarioSpec",
    "TopologySpec",
    "all_scenarios",
    "build_scenario_job",
    "canonical_json",
    "fingerprint",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "scenario_names",
    "series_digest",
]
