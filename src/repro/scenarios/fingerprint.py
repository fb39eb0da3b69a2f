"""Golden-trace fingerprints of deterministic scenario runs.

A fingerprint reduces one simulated run to a compact, byte-stable summary of
its *behaviour*: makespan, step counts, throughput, restart/failure history,
Controller actions, and per-worker event digests.  Two runs of the same
:class:`~repro.scenarios.spec.ScenarioSpec` must produce byte-identical
fingerprints (the simulator is deterministic given a seed), so checked-in
fingerprints act as golden traces: any behavioural drift — an engine fast-path
that reorders events, a refactor that changes a threshold — shows up as a
diff against ``tests/golden/traces/``.

Engine internals (event counts, queue sizes) are deliberately *excluded*:
perf PRs are free to change how the behaviour is computed, not what it is.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from ..sim.failures import FailureInjector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..psarch.job import PSRunResult
    from .spec import ScenarioSpec

__all__ = ["fingerprint", "canonical_json", "series_digest"]

#: Decimal places kept for times/values inside digests and summary floats.
#: Well above the simulator's event-granularity, well below accumulated
#: float-noise territory — reruns of a deterministic engine reproduce the
#: exact same arithmetic, so full precision would also work; the rounding
#: keeps the traces readable and diffable.
_DIGITS = 9


def _round(value: float) -> float:
    return round(float(value), _DIGITS)


#: One series point as digested: ``time,value;`` in ``_DIGITS``-digit
#: scientific notation.
_POINT_FORMAT = f"{{:.{_DIGITS}e}},{{:.{_DIGITS}e}};"


#: Points hashed per update: a joined string of this many stays small.
_POINTS_PER_UPDATE = 4096


def series_digest(times: Iterable[float], values: Iterable[float]) -> str:
    """Stable short digest of one (times, values) event series."""
    hasher = hashlib.sha256()
    points = map(_POINT_FORMAT.format, times, values)
    while True:
        text = "".join(islice(points, _POINTS_PER_UPDATE))
        if not text:
            return hasher.hexdigest()[:16]
        hasher.update(text.encode("ascii"))


def canonical_json(payload: Dict[str, object]) -> str:
    """The canonical byte form golden traces are stored and compared in."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def fingerprint(spec: "ScenarioSpec", result: "PSRunResult",
                injector: Optional[FailureInjector] = None) -> Dict[str, object]:
    """Reduce one deterministic run to its golden-trace fingerprint."""
    metrics = result.metrics
    workers: Dict[str, Dict[str, object]] = {}
    if metrics is not None:
        for worker in metrics.tags("bpt"):
            series = metrics.series("bpt", worker)
            batch_series = metrics.series("batch_size", worker)
            workers[worker] = {
                "iterations": len(series),
                "bpt_digest": series_digest(series.times(), series.values()),
                "batch_digest": series_digest(batch_series.times(), batch_series.values()),
            }
    actions: Dict[str, int] = {}
    for action in result.action_log:
        key = action.action_type.value
        actions[key] = actions.get(key, 0) + 1
    failures: List[Dict[str, object]] = []
    if injector is not None:
        failures = [
            {"time_s": _round(event.time), "node": event.node_name, "code": event.code.value}
            for event in injector.history
        ]
    jct = result.jct
    payload = {
        "scenario": spec.name,
        "method": spec.method,
        "seed": spec.seed,
        "completed": result.completed,
        "jct_s": _round(jct),
        "total_samples": result.total_samples,
        "samples_confirmed": result.samples_confirmed,
        "throughput_samples_per_s": _round(result.samples_confirmed / jct) if jct > 0 else 0.0,
        "dropped_iterations": result.dropped_iterations,
        "done_shards": result.done_shards,
        "total_shards": result.total_shards,
        "restarts": {
            node: count for node, count in sorted(result.restarts_per_node.items()) if count
        },
        "actions": actions,
        "failures": failures,
        "workers": workers,
    }
    if (result.membership_events or result.server_membership_events
            or result.reshard_events):
        # Elastic membership churn is part of the pinned behaviour.  The key
        # is added only when churn occurred, so every fixed-fleet trace stays
        # byte-identical to its pre-elastic form.  (A warm-standby promotion
        # resharding without membership churn — a killed primary — counts:
        # pre-replication runs cannot produce reshard events without server
        # membership events, so the extra trigger changes no existing trace.)
        payload["elastic"] = _membership_section(result.membership_events)
    if result.server_membership_events or result.reshard_events:
        # Server-tier churn and the shard re-partitionings it caused.  Both
        # sub-keys appear only when the serving membership actually changed,
        # so every pre-existing trace — fixed-fleet and worker-elastic alike
        # — keeps its exact bytes.
        if result.server_membership_events:
            payload["elastic"]["servers"] = _membership_section(
                result.server_membership_events)
        resharding: Dict[str, object] = {
            "events": [
                _reshard_event(event) for event in result.reshard_events
            ],
            "total_moved_shards": sum(event.moved_shards
                                      for event in result.reshard_events),
            "shard_map_digest": result.shard_map_digest,
        }
        # Replication/weighting keys appear only when the feature is on, so
        # replicas=0 uniform-weight traces keep their exact bytes.
        promoted_total = sum(event.promoted_shards
                             for event in result.reshard_events)
        if promoted_total:
            resharding["promoted_total"] = promoted_total
        if result.shard_replicas:
            resharding["replicas"] = result.shard_replicas
        if result.shard_weights:
            resharding["shard_weights"] = result.shard_weights
        payload["elastic"]["resharding"] = resharding
    if result.serving is not None:
        # Serving SLO summary (goodput, p50/p99 latency, shed counts by
        # reason, per-tenant breakdown).  The key appears only when the
        # scenario attached serving traffic, so every training-only trace
        # keeps its exact bytes.
        payload["serving"] = _rounded_tree(result.serving)
    return payload


def _rounded_tree(value: object) -> object:
    """Round every float in a nested JSON-safe structure to ``_DIGITS``."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return _round(value)
    if isinstance(value, dict):
        return {key: _rounded_tree(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded_tree(item) for item in value]
    return value


def _reshard_event(event) -> Dict[str, object]:
    """Serialize one reshard event (``promoted_shards`` only when nonzero)."""
    data: Dict[str, object] = {
        "time_s": _round(event.time_s), "kind": event.kind,
        "trigger": event.trigger, "moved_shards": event.moved_shards,
        "cost_s": _round(event.cost_s)}
    if event.promoted_shards:
        data["promoted_shards"] = event.promoted_shards
    return data


def _membership_section(membership_events) -> Dict[str, object]:
    """Serialize one tier's membership-event list (worker or server)."""
    counts = {"join_requested": 0, "joined": 0, "left": 0}
    events = []
    for event in membership_events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
        events.append({"time_s": _round(event.time_s), "event": event.kind,
                       "node": event.node})
    return {
        "events": events,
        "joined": counts["joined"],
        "left": counts["left"],
        "unplaced": counts["join_requested"] - counts["joined"],
    }
