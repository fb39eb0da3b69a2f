"""Autoscaler policies: when to grow and when to shrink the worker fleet.

Each policy is a pure decision function over an :class:`ElasticContext`
snapshot — it owns no simulation state beyond its own configuration, so the
same policy object produces the same actions for the same context (the
determinism the golden traces rely on).  Three families cover the paper's
non-dedicated-cluster reality:

* :class:`UtilizationThresholdPolicy` — progress-driven: scale out while the
  estimated time-to-finish exceeds a horizon (and the cluster is not busy),
  scale the newest workers back in when the remaining work no longer
  justifies the fleet.
* :class:`StragglerPressurePolicy` — scale *in* a persistent straggler
  instead of dragging it (optionally requesting a healthy replacement),
  the elastic alternative to KILL_RESTART.
* :class:`ScheduledCapacityPolicy` — a deterministic capacity plan (peak/
  off-peak steps), the "the scheduler frees capacity at 2am" pattern.

The *server* tier has its own policy registry (:data:`SERVER_POLICIES`),
because a straggling parameter server throttles every worker at once and the
right levers differ:

* :class:`ServerQueueDepthPolicy` — backlog-driven: grow the serving tier
  while the mean push-queue depth per server exceeds a threshold (and the
  cluster can actually deliver a pod), shrink it when the queues run dry.
* :class:`ContendedServerPolicy` — retire-and-replace: detect a persistently
  contended server (the one fault class where the paper shows only
  KILL_RESTART helps) and retire it, requesting a healthy replacement only
  when the pending-time forecast says it would arrive in time to matter.
* :class:`ServingSLOPolicy` — SLO-driven: under training + serving
  colocation, grow the tier while the serving workload breaches its shed
  or p99 latency budget, shrink it once the window is clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.actions import Action, ScaleIn, ScaleInServers, ScaleOut, ScaleOutServers
from ..core.detection import detect_stragglers
from .membership import newest

__all__ = [
    "ElasticContext",
    "AutoscalerPolicy",
    "UtilizationThresholdPolicy",
    "StragglerPressurePolicy",
    "ScheduledCapacityPolicy",
    "ServerQueueDepthPolicy",
    "ContendedServerPolicy",
    "ServingSLOPolicy",
    "POLICIES",
    "SERVER_POLICIES",
    "make_policy",
    "make_server_policy",
]


@dataclass
class ElasticContext:
    """Everything a policy may consult for one scaling decision.

    ``active_workers`` is ordered by join time (original workers first,
    elastically added ones after), which is what makes "retire the newest"
    deterministic.  ``pending_workers`` counts requested-but-not-yet-placed
    pods; ``committed_workers`` and ``committed_servers`` are what the job's
    scale-out caps count (active, relaunching and pending members).
    """

    now: float
    active_workers: List[str]
    pending_workers: int
    committed_workers: int
    min_workers: int
    max_workers: Optional[int]
    cluster_busy: bool
    pending_time_s: float
    remaining_samples: int
    worker_short_bpts: Dict[str, float] = field(default_factory=dict)
    worker_long_bpts: Dict[str, float] = field(default_factory=dict)
    worker_throughputs: Dict[str, float] = field(default_factory=dict)
    slowness_ratio: float = 1.4
    # Server-tier membership and signals (empty/default for worker-only
    # autoscaling; ``active_servers`` is ordered by join time like workers).
    active_servers: List[str] = field(default_factory=list)
    pending_servers: int = 0
    committed_servers: int = 0
    min_servers: int = 1
    max_servers: Optional[int] = None
    server_queue_depths: Dict[str, int] = field(default_factory=dict)
    server_long_bpts: Dict[str, float] = field(default_factory=dict)
    # Per-server *heat* from the shard map's hot-key weights (owned weight
    # relative to the uniform share; 1.0 == even).  Empty under uniform
    # weights, in which case the policies fall back to raw counts.
    server_shard_weights: Dict[str, float] = field(default_factory=dict)
    # Windowed serving-tier SLO snapshot (arrival_rps, shed_rate, inflight,
    # and p99_s when the window saw completions).  None when the scenario
    # has no serving traffic — the serving-slo policy then stands down.
    serving: Optional[Dict[str, float]] = None

    @property
    def headroom(self) -> int:
        """How many more workers may be requested before hitting the cap."""
        if self.max_workers is None:
            return 2**31
        return max(0, self.max_workers - self.committed_workers)

    @property
    def shrinkable(self) -> int:
        """How many active workers may retire before hitting the floor."""
        return max(0, len(self.active_workers) - self.min_workers)

    def estimated_remaining_s(self) -> Optional[float]:
        """Remaining work over aggregate fleet throughput (None when unknown)."""
        total = sum(self.worker_throughputs.get(worker, 0.0)
                    for worker in self.active_workers)
        if total <= 0:
            return None
        return self.remaining_samples / total

    # -- server tier --------------------------------------------------------------
    @property
    def server_headroom(self) -> int:
        """How many more servers may be requested before hitting the cap."""
        if self.max_servers is None:
            return 2**31
        return max(0, self.max_servers - self.committed_servers)

    @property
    def server_shrinkable(self) -> int:
        """How many active servers may retire before hitting the floor."""
        return max(0, len(self.active_servers) - self.min_servers)

    def weighted_server_depths(self) -> Dict[str, float]:
        """Queue depth per *active* server, scaled by its hot-shard heat.

        Two deliberate choices: every active server appears — one that never
        enqueued anything is a drained server at depth 0, not a gap in the
        mean (excluding it skewed the shrink trigger upward and delayed
        scale-in) — and with ``server_shard_weights`` present each raw depth
        is multiplied by the server's heat, so a modest backlog on the
        server owning the hot keys reads as the large share of pending work
        it actually is.  Under uniform weights the values are the raw
        (integer) depths.
        """
        weights = self.server_shard_weights
        depths: Dict[str, float] = {}
        for server in self.active_servers:
            depth = self.server_queue_depths.get(server, 0)
            if weights:
                # Heat 0 — an active server that owns no primary weight
                # right now (e.g. promoted away and freshly recovered) —
                # must not zero out a real backlog: treat it as uniform,
                # mirroring ContendedServerPolicy's guard, instead of
                # hiding the server from the max trigger and dragging the
                # shrink mean toward zero.
                depth = depth * (weights.get(server, 1.0) or 1.0)
            depths[server] = depth
        return depths


class AutoscalerPolicy:
    """Base class: a named, deterministic scaling decision function."""

    name = "base"

    def decide(self, context: ElasticContext) -> List[Action]:
        """Return the scaling actions for one control round (may be empty)."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line description for logs and reports."""
        return self.name


class UtilizationThresholdPolicy(AutoscalerPolicy):
    """Scale with the estimated time-to-finish of the remaining workload.

    While the fleet's estimated remaining time exceeds ``scale_out_horizon_s``
    — i.e. the committed capacity is insufficient for the backlog — request
    one worker per round, but only when the cluster scheduler is idle enough
    that the pod would actually arrive in time to help.  Once the remaining
    time falls below ``scale_in_horizon_s`` the marginal worker no longer
    pays for itself; retire the newest one per round.
    """

    name = "utilization"

    def __init__(self, scale_out_horizon_s: float = 120.0,
                 scale_in_horizon_s: float = 20.0,
                 step: int = 1) -> None:
        if scale_out_horizon_s <= scale_in_horizon_s:
            raise ValueError("scale_out_horizon_s must exceed scale_in_horizon_s")
        if step <= 0:
            raise ValueError("step must be positive")
        self.scale_out_horizon_s = float(scale_out_horizon_s)
        self.scale_in_horizon_s = float(scale_in_horizon_s)
        self.step = int(step)

    def decide(self, context: ElasticContext) -> List[Action]:
        remaining = context.estimated_remaining_s()
        if remaining is None:
            return []
        if (remaining > self.scale_out_horizon_s and not context.cluster_busy
                and context.headroom > 0):
            return [ScaleOut(num_workers=min(self.step, context.headroom),
                             reason=f"eta {remaining:.0f}s over horizon")]
        if remaining < self.scale_in_horizon_s and context.shrinkable > 0:
            count = min(self.step, context.shrinkable)
            return [ScaleIn(node_names=tuple(newest(context.active_workers, count)),
                            reason=f"eta {remaining:.0f}s under horizon")]
        return []


class StragglerPressurePolicy(AutoscalerPolicy):
    """Retire a persistent straggler instead of dragging it.

    Detection reuses the AntDT long-window criterion (mean BPT ≥ λ · fleet
    mean).  Where KILL_RESTART pays a relaunch to *keep* the node, this
    policy removes it from the membership entirely — the DDS requeues its
    in-flight shard and the healthy fleet absorbs the data.  With
    ``replace=True`` a healthy replacement pod is requested at the same time
    (when the scheduler is not busy), trading membership size for quality.
    """

    name = "straggler-pressure"

    def __init__(self, replace: bool = False,
                 slowness_ratio: Optional[float] = None) -> None:
        self.replace = bool(replace)
        self.slowness_ratio = slowness_ratio

    def decide(self, context: ElasticContext) -> List[Action]:
        long = {worker: bpt for worker, bpt in context.worker_long_bpts.items()
                if worker in context.active_workers}
        if len(long) < 2 or context.shrinkable <= 0:
            return []
        ratio = self.slowness_ratio if self.slowness_ratio is not None \
            else context.slowness_ratio
        report = detect_stragglers(long, ratio)
        if not report.stragglers:
            return []
        # Retire the single worst offender per round; ranking by (BPT, name)
        # keeps ties deterministic.
        worst = max(report.stragglers, key=lambda worker: (long[worker], worker))
        actions: List[Action] = [ScaleIn(node_names=(worst,),
                                         reason="persistent straggler pressure")]
        if self.replace and not context.cluster_busy and context.headroom > 0:
            actions.append(ScaleOut(num_workers=1, reason="straggler replacement"))
        return actions


class ScheduledCapacityPolicy(AutoscalerPolicy):
    """Follow a deterministic capacity plan of ``[time_s, target]`` steps.

    At every decision round the target is the last step whose time has been
    reached; the policy emits whatever scale-out/scale-in delta moves the
    *committed* membership (active, relaunching and pending) to the target,
    clamped to the context's min/max bounds.  Steps must be time-sorted.
    """

    name = "scheduled-capacity"

    def __init__(self, schedule: Sequence[Sequence[float]]) -> None:
        steps: List[Tuple[float, int]] = []
        for step in schedule:
            time_s, target = step
            steps.append((float(time_s), int(target)))
        if not steps:
            raise ValueError("a capacity schedule requires at least one step")
        if any(time_s < 0 for time_s, _ in steps):
            raise ValueError("schedule times must be non-negative")
        if any(target < 1 for _, target in steps):
            raise ValueError("schedule targets must be at least 1")
        if steps != sorted(steps, key=lambda step: step[0]):
            raise ValueError("schedule steps must be sorted by time")
        self.schedule: Tuple[Tuple[float, int], ...] = tuple(steps)

    def target_at(self, now: float) -> Optional[int]:
        """The capacity target in effect at ``now`` (None before step one)."""
        target: Optional[int] = None
        for time_s, step_target in self.schedule:
            if time_s <= now:
                target = step_target
        return target

    def decide(self, context: ElasticContext) -> List[Action]:
        target = self.target_at(context.now)
        if target is None:
            return []
        if context.max_workers is not None:
            target = min(target, context.max_workers)
        target = max(target, context.min_workers)
        delta = target - context.committed_workers
        if delta > 0:
            count = min(delta, context.headroom)
            if count <= 0:
                return []
            return [ScaleOut(num_workers=count,
                             reason=f"capacity plan target {target}")]
        if delta < 0:
            count = min(-delta, context.shrinkable)
            if count <= 0:
                return []
            return [ScaleIn(node_names=tuple(newest(context.active_workers, count)),
                            reason=f"capacity plan target {target}")]
        return []


class ServerQueueDepthPolicy(AutoscalerPolicy):
    """Scale the serving tier with its push-queue backlog.

    A backed-up server queue is the direct symptom of an undersized (or
    contended) PS tier: every worker's :math:`T^s_i` grows with it.  The
    scale-out trigger is the *deepest* queue — a single hot server throttles
    the whole job even when its siblings idle, so a mean would hide exactly
    the case that matters — while the scale-in trigger is the *mean*: the
    tier only shrinks once the backlog has drained everywhere.  Scale-out is
    additionally gated on the cluster scheduler being idle enough that the
    pod would arrive in time to help.

    Depths are *weighted* (:meth:`ElasticContext.weighted_server_depths`):
    with non-uniform shard weights a queue entry on the server owning the
    hot keys counts for proportionally more, so the policy sees heat where a
    raw count would under-read the one server that matters; active servers
    missing from the depth snapshot count as drained (depth 0) rather than
    being silently excluded from the shrink mean.
    """

    name = "server-queue-depth"

    def __init__(self, scale_out_depth: float = 4.0,
                 scale_in_depth: float = 0.25,
                 step: int = 1) -> None:
        if scale_out_depth <= scale_in_depth:
            raise ValueError("scale_out_depth must exceed scale_in_depth")
        if step <= 0:
            raise ValueError("step must be positive")
        self.scale_out_depth = float(scale_out_depth)
        self.scale_in_depth = float(scale_in_depth)
        self.step = int(step)

    def decide(self, context: ElasticContext) -> List[Action]:
        depths = context.weighted_server_depths()
        if not depths:
            return []
        max_depth = max(depths.values())
        mean_depth = sum(depths.values()) / len(depths)
        if (max_depth > self.scale_out_depth and not context.cluster_busy
                and context.server_headroom > 0):
            return [ScaleOutServers(
                num_servers=min(self.step, context.server_headroom),
                reason=f"max queue depth {max_depth} over threshold")]
        if mean_depth < self.scale_in_depth and context.server_shrinkable > 0:
            count = min(self.step, context.server_shrinkable)
            return [ScaleInServers(
                node_names=tuple(newest(context.active_servers, count)),
                reason=f"mean queue depth {mean_depth:.2f} under threshold")]
        return []


class ContendedServerPolicy(AutoscalerPolicy):
    """Retire a persistently contended server and (optionally) replace it.

    Detection reuses the AntDT long-window criterion over per-request server
    handling times (mean handling ≥ λ · tier mean).  Where KILL_RESTART pays
    a relaunch to keep the node, this policy removes it from the serving
    membership entirely — its parameter shards re-partition onto the healthy
    survivors and its queued pushes re-route.  With ``replace=True`` a
    healthy replacement pod is requested in the same round, but only when
    the scheduler's pending-time forecast (``max_pending_s``) says the pod
    would arrive soon enough to matter — the server-tier analogue of the
    paper's busy-cluster gate.

    With non-uniform shard weights the observed handling times are first
    normalised by each server's heat: a server slow *because* it owns the
    hot keys is loaded, not contended — retiring it only moves the heat to
    the next owner — so only servers slow beyond what their weight share
    explains are flagged.
    """

    name = "contended-server"

    def __init__(self, replace: bool = True,
                 slowness_ratio: Optional[float] = None,
                 max_pending_s: float = 300.0) -> None:
        if max_pending_s < 0:
            raise ValueError("max_pending_s must be non-negative")
        self.replace = bool(replace)
        self.slowness_ratio = slowness_ratio
        self.max_pending_s = float(max_pending_s)

    def decide(self, context: ElasticContext) -> List[Action]:
        weights = context.server_shard_weights
        long = {server: bpt for server, bpt in context.server_long_bpts.items()
                if server in context.active_servers}
        if weights:
            # Heat 0 (a server owning no primary weight) has no hot-key
            # excuse for slowness; treat it as uniform rather than divide
            # by zero.
            long = {server: bpt / (weights.get(server, 1.0) or 1.0)
                    for server, bpt in long.items()}
        if len(long) < 2 or context.server_shrinkable <= 0:
            return []
        ratio = self.slowness_ratio if self.slowness_ratio is not None \
            else context.slowness_ratio
        report = detect_stragglers(long, ratio)
        if not report.stragglers:
            return []
        worst = max(report.stragglers, key=lambda server: (long[server], server))
        actions: List[Action] = [ScaleInServers(
            node_names=(worst,), reason="persistent server contention")]
        if (self.replace and not context.cluster_busy
                and context.pending_time_s <= self.max_pending_s
                and context.server_headroom > 0):
            actions.append(ScaleOutServers(num_servers=1,
                                           reason="contended-server replacement"))
        return actions


class ServingSLOPolicy(AutoscalerPolicy):
    """Scale the server tier on the serving workload's SLO, not its backlog.

    The queue-depth policy watches the *training* push queues; this one
    watches what the tier exists for under colocation — request latency and
    shedding.  Scale out while the windowed serving snapshot breaches either
    budget: shed rate above ``max_shed_rate`` (the tier is actively
    degrading responses) or p99 latency above ``target_p99_s`` (it is about
    to).  Scale the newest servers back in only when the window is clean —
    zero shedding *and* p99 under ``scale_in_fraction`` of the target with
    real traffic present — so a tier scaled out for a flash crowd returns
    to size afterwards.  Scale-out is gated on the cluster scheduler being
    idle enough that the pod would arrive in time to help, like every other
    grow trigger.

    Stands down (no actions) when the context carries no serving snapshot:
    wiring the policy into a scenario without serving traffic is inert
    rather than wrong.
    """

    name = "serving-slo"

    def __init__(self, target_p99_s: float = 0.5,
                 max_shed_rate: float = 0.01,
                 scale_in_fraction: float = 0.25,
                 min_arrival_rps: float = 1.0,
                 step: int = 1) -> None:
        if target_p99_s <= 0:
            raise ValueError("target_p99_s must be positive")
        if not 0.0 <= max_shed_rate < 1.0:
            raise ValueError("max_shed_rate must lie in [0, 1)")
        if not 0.0 < scale_in_fraction < 1.0:
            raise ValueError("scale_in_fraction must lie in (0, 1)")
        if min_arrival_rps < 0:
            raise ValueError("min_arrival_rps must be non-negative")
        if step <= 0:
            raise ValueError("step must be positive")
        self.target_p99_s = float(target_p99_s)
        self.max_shed_rate = float(max_shed_rate)
        self.scale_in_fraction = float(scale_in_fraction)
        self.min_arrival_rps = float(min_arrival_rps)
        self.step = int(step)

    def decide(self, context: ElasticContext) -> List[Action]:
        serving = context.serving
        if not serving:
            return []
        shed_rate = serving.get("shed_rate", 0.0)
        p99 = serving.get("p99_s")
        arrival_rps = serving.get("arrival_rps", 0.0)
        breached: Optional[str] = None
        if shed_rate > self.max_shed_rate:
            breached = f"shed rate {shed_rate:.3f} over {self.max_shed_rate}"
        elif p99 is not None and p99 > self.target_p99_s:
            breached = f"p99 {p99:.3f}s over {self.target_p99_s}s"
        if breached:
            if context.cluster_busy or context.server_headroom <= 0:
                return []
            return [ScaleOutServers(
                num_servers=min(self.step, context.server_headroom),
                reason=f"serving SLO breach: {breached}")]
        if (shed_rate == 0.0 and arrival_rps >= self.min_arrival_rps
                and p99 is not None
                and p99 < self.scale_in_fraction * self.target_p99_s
                and context.server_shrinkable > 0):
            count = min(self.step, context.server_shrinkable)
            return [ScaleInServers(
                node_names=tuple(newest(context.active_servers, count)),
                reason=f"serving SLO clear: p99 {p99:.3f}s well under target")]
        return []


#: Registry of policy factories, keyed by the name used in ``ElasticSpec``.
POLICIES: Dict[str, Callable[..., AutoscalerPolicy]] = {
    UtilizationThresholdPolicy.name: UtilizationThresholdPolicy,
    StragglerPressurePolicy.name: StragglerPressurePolicy,
    ScheduledCapacityPolicy.name: ScheduledCapacityPolicy,
}

#: Registry of server-tier policy factories, keyed by the name used in the
#: ``servers`` section of an ``ElasticSpec``.  Kept separate from
#: :data:`POLICIES`: a worker policy emits worker actions and would silently
#: do the wrong thing if wired into the server tier (and vice versa).
SERVER_POLICIES: Dict[str, Callable[..., AutoscalerPolicy]] = {
    ServerQueueDepthPolicy.name: ServerQueueDepthPolicy,
    ContendedServerPolicy.name: ContendedServerPolicy,
    ServingSLOPolicy.name: ServingSLOPolicy,
}


def make_policy(name: str, **params: object) -> AutoscalerPolicy:
    """Instantiate a registered policy by name with JSON-safe parameters."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown autoscaler policy {name!r}; available: {sorted(POLICIES)}"
        ) from None
    return factory(**params)


def make_server_policy(name: str, **params: object) -> AutoscalerPolicy:
    """Instantiate a registered server-tier policy by name."""
    try:
        factory = SERVER_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown server autoscaler policy {name!r}; "
            f"available: {sorted(SERVER_POLICIES)}"
        ) from None
    return factory(**params)
