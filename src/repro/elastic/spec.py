"""Declarative elastic-scaling specification for scenarios.

An :class:`ElasticSpec` describes *when and how a job's worker membership
changes*: a deterministic schedule of :class:`ScaleEvent` steps, an autoscaler
policy (by registry name, with JSON-safe parameters), or both.  Like every
other scenario ingredient it serializes through the one spec codec
(:class:`~repro.codec.SpecCodec`), so elastic scenarios can be named,
content-addressed by the result store, and pinned to golden traces.

The module is deliberately dependency-light (no simulation imports): it is
pulled in by :mod:`repro.scenarios.spec`, while the runtime wiring lives in
:mod:`repro.elastic.autoscaler` and :mod:`repro.scenarios.matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..codec import SpecCodec

__all__ = ["ScaleEvent", "ServerElasticSpec", "ElasticSpec", "NO_ELASTIC",
           "NO_SERVER_ELASTIC"]

#: Valid directions of a scheduled scale event.
_DIRECTIONS = ("out", "in")


def _json_normalize(value: object) -> object:
    """Coerce nested sequences to lists, the shape JSON round-trips to.

    Policy parameters may carry nested structure (e.g. a capacity schedule of
    ``[time, target]`` steps); normalising at construction makes
    ``from_dict(to_dict(spec)) == spec`` hold regardless of whether the caller
    wrote tuples or lists.
    """
    if isinstance(value, (list, tuple)):
        return [_json_normalize(item) for item in value]
    return value


@dataclass(frozen=True)
class ScaleEvent(SpecCodec):
    """One scheduled membership change.

    ``action`` is ``"out"`` (request ``count`` extra workers from the cluster
    scheduler) or ``"in"`` (gracefully retire workers).  A scale-in may name
    explicit ``nodes``; without names the job retires its most recently
    joined active workers (LIFO), which is deterministic by construction.
    """

    time_s: float
    action: str
    count: int = 1
    nodes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("scale events must fire at non-negative times")
        if self.action not in _DIRECTIONS:
            raise ValueError(f"scale action must be one of {_DIRECTIONS}, "
                             f"got {self.action!r}")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.nodes:
            if self.action != "in":
                raise ValueError("explicit node names only apply to scale-in events")
            if len(set(self.nodes)) != len(self.nodes):
                raise ValueError("scale-in node names must be unique")
            object.__setattr__(self, "count", len(self.nodes))
        if self.count <= 0:
            raise ValueError("scale events must move at least one worker")


@dataclass(frozen=True)
class ServerElasticSpec(SpecCodec):
    """Elastic-membership knobs of the parameter-server tier.

    Attributes
    ----------
    events:
        Deterministic server scale-out/scale-in schedule (reuses
        :class:`ScaleEvent`; a scale-in without explicit ``nodes`` retires
        the most recently joined active servers, LIFO).
    policy:
        Server autoscaler policy name from
        :data:`repro.elastic.policies.SERVER_POLICIES` (``None`` disables the
        server-side autoscaler; the decision cadence is the enclosing
        :class:`ElasticSpec`'s ``interval_s`` / ``cooldown_s``).
    policy_params:
        JSON-safe ``(name, value)`` pairs forwarded to the policy factory.
    min_servers / max_servers:
        Hard membership bounds of the server tier (``min_servers`` never
        drops below 1 — BSP training requires a serving tier).
    replicas:
        Warm standbys per parameter shard.  ``0`` (the default) is the
        pre-replication single-owner behaviour; ``1`` records a primary plus
        one warm standby per shard, so a server kill or drain promotes the
        standby instead of paying a full migration and recovery stall.
    hot_shards:
        Non-uniform shard weights as ``(shard_id, weight)`` pairs (unlisted
        shards weigh 1.0) — the declarative form of embedding-table key
        skew.  Threaded through the migration cost model and the weighted
        ``server-queue-depth`` / ``contended-server`` policies.
    staleness_catchup_s:
        Extra promotion cost modelling standby *staleness*: a warm standby
        holds the shard bytes but may trail the primary's most recent
        updates, so a kill-path promotion charges this catch-up window on
        top of the flat promotion cost before the promoted owners accept
        re-routed traffic.  Defaults to ``0.0`` (instantly-fresh standbys).
    """

    events: Tuple[ScaleEvent, ...] = ()
    policy: Optional[str] = None
    policy_params: Tuple[Tuple[str, object], ...] = ()
    min_servers: int = 1
    max_servers: Optional[int] = None
    replicas: int = 0
    hot_shards: Tuple[Tuple[int, float], ...] = ()
    staleness_catchup_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(
            self, "policy_params",
            tuple((str(key), _json_normalize(value))
                  for key, value in self.policy_params))
        object.__setattr__(
            self, "hot_shards",
            tuple((int(shard), float(weight))
                  for shard, weight in self.hot_shards))
        if self.min_servers < 1:
            raise ValueError("min_servers must be at least 1")
        if self.max_servers is not None and self.max_servers < self.min_servers:
            raise ValueError("max_servers must be >= min_servers")
        if self.replicas < 0:
            raise ValueError("replicas must be non-negative")
        if self.staleness_catchup_s < 0:
            raise ValueError("staleness_catchup_s must be non-negative")
        if any(shard < 0 for shard, _ in self.hot_shards):
            raise ValueError("hot shard ids must be non-negative")
        if any(weight <= 0 for _, weight in self.hot_shards):
            raise ValueError("hot shard weights must be positive")
        if len({shard for shard, _ in self.hot_shards}) != len(self.hot_shards):
            raise ValueError("hot shard ids must be unique")
        if self.policy is not None:
            # Same eager validation (and the same lazy import, for the same
            # reason) as ElasticSpec's worker policy.
            from .policies import SERVER_POLICIES

            if self.policy not in SERVER_POLICIES:
                raise ValueError(
                    f"unknown server autoscaler policy {self.policy!r}; "
                    f"available: {sorted(SERVER_POLICIES)}")
        if self.policy is None and self.policy_params:
            raise ValueError("policy_params given without a policy")

    def __bool__(self) -> bool:
        return (bool(self.events) or self.policy is not None
                or self.replicas > 0 or bool(self.hot_shards))


#: The inert server-tier default: no schedule, no autoscaler (falsy).
NO_SERVER_ELASTIC = ServerElasticSpec()


@dataclass(frozen=True)
class ElasticSpec(SpecCodec):
    """Elastic-scaling knobs of a scenario.

    Attributes
    ----------
    events:
        Deterministic scale-out/scale-in schedule replayed against the job.
    policy:
        Autoscaler policy name from :data:`repro.elastic.policies.POLICIES`
        (``None`` disables the autoscaler).
    policy_params:
        JSON-safe ``(name, value)`` pairs forwarded to the policy factory.
    interval_s:
        Autoscaler decision cadence.
    cooldown_s:
        Minimum quiet period after a *granted* scaling action before the
        autoscaler acts again (flap damping).
    min_workers / max_workers:
        Hard membership bounds the job enforces regardless of who asks
        (``max_workers=None`` leaves scale-out unbounded).
    servers:
        Elastic membership of the parameter-server tier
        (:class:`ServerElasticSpec`).  Defaults to the inert
        :data:`NO_SERVER_ELASTIC`.
    """

    events: Tuple[ScaleEvent, ...] = ()
    policy: Optional[str] = None
    policy_params: Tuple[Tuple[str, object], ...] = ()
    interval_s: float = 20.0
    cooldown_s: float = 0.0
    min_workers: int = 1
    max_workers: Optional[int] = None
    servers: ServerElasticSpec = NO_SERVER_ELASTIC

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(
            self, "policy_params",
            tuple((str(key), _json_normalize(value))
                  for key, value in self.policy_params))
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        if self.min_workers < 1:
            raise ValueError("min_workers must be at least 1")
        if self.max_workers is not None and self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if self.policy is not None:
            # Validate the name eagerly so a typo'd spec fails at construction
            # rather than mid-sweep.  Imported lazily: the policies module
            # pulls in the action/detection machinery this data module must
            # not depend on at import time.
            from .policies import POLICIES

            if self.policy not in POLICIES:
                raise ValueError(
                    f"unknown autoscaler policy {self.policy!r}; "
                    f"available: {sorted(POLICIES)}")
        if self.policy is None and self.policy_params:
            raise ValueError("policy_params given without a policy")

    def __bool__(self) -> bool:
        return bool(self.events) or self.policy is not None or bool(self.servers)


#: The inert default: no schedule, no autoscaler (falsy).
NO_ELASTIC = ElasticSpec()
