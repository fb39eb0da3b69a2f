"""The autoscaler control loop.

The :class:`Autoscaler` is a second, membership-focused control loop next to
the AntDT :class:`~repro.core.controller.Controller`: every ``interval_s``
simulated seconds it snapshots the Monitor's sliding-window statistics and
the job's membership into an
:class:`~repro.elastic.policies.ElasticContext`, asks its policy for
:class:`~repro.core.actions.ScaleOut` / :class:`~repro.core.actions.ScaleIn`
actions, and executes them through the job's elastic executor surface.  A
cooldown after every *granted* action damps membership flapping.

The loop owns only its cadence and damping.  The membership bounds a policy
plans against are the ones the executor enforces (its ``elastic_*``
attributes), and the detection windows and slowness ratio are the job's
:class:`~repro.core.config.AntDTConfig`, read exactly as the Controller
reads them — so both loops, and the job, always agree on them.

The executor protocol (:class:`ElasticExecutor`) is the job's membership
surface — the bounds, the scale-out/scale-in requests, which only this loop
issues, plus the progress accessors a policy needs;
:class:`~repro.psarch.job.PSTrainingJob` implements it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol

from ..core.actions import Action, ScaleIn, ScaleInServers, ScaleOut, ScaleOutServers
from ..core.config import AntDTConfig
from ..core.monitor import Monitor
from ..obs.recorder import NULL_RECORDER, Decision
from ..sim.engine import Environment
from .policies import AutoscalerPolicy, ElasticContext

__all__ = ["ElasticExecutor", "Autoscaler"]

#: Trace verdict recorded when an action of this type is granted.
_ACTION_VERDICTS = {
    ScaleOut: "scale-out",
    ScaleIn: "scale-in",
    ScaleOutServers: "scale-out-servers",
    ScaleInServers: "scale-in-servers",
}


class ElasticExecutor(Protocol):
    """What the autoscaler needs from a training job.

    The four ``elastic_*`` bounds are the hard membership limits the job's
    scale requests enforce; the autoscaler hands the same values to its
    policies, so a policy never plans against a bound the job does not hold.
    """

    elastic_min_workers: int
    elastic_max_workers: Optional[int]
    elastic_min_servers: int
    elastic_max_servers: Optional[int]

    @property
    def finished(self) -> bool:
        """True once the training job has completed."""
        ...

    def active_worker_names(self) -> List[str]:
        """Active workers, ordered by join time."""
        ...

    def pending_worker_count(self) -> int:
        """Workers requested from the scheduler but not yet placed."""
        ...

    def committed_worker_count(self) -> int:
        """Workers held against the cap: active, relaunching and pending."""
        ...

    def remaining_samples(self) -> int:
        """Samples of the workload not yet confirmed."""
        ...

    def request_scale_out(self, count: int, reason: str) -> List[str]:
        """Request additional workers; returns the names actually requested."""
        ...

    def request_scale_in(self, node_names: List[str], reason: str) -> List[str]:
        """Gracefully retire workers; returns the names actually retiring."""
        ...

    # -- server tier --------------------------------------------------------
    def active_server_names(self) -> List[str]:
        """Active (non-draining) servers, ordered by join time."""
        ...

    def pending_server_count(self) -> int:
        """Servers requested from the scheduler but not yet placed."""
        ...

    def committed_server_count(self) -> int:
        """Servers held against the cap: serving, relaunching and pending."""
        ...

    def server_queue_depths(self) -> Dict[str, int]:
        """Queued push requests per active server."""
        ...

    def server_shard_weights(self) -> Dict[str, float]:
        """Per-server heat from hot-key shard weights (empty when uniform)."""
        ...

    def serving_slo_snapshot(self) -> Optional[Dict[str, float]]:
        """Windowed serving SLO view (None when no serving tier is attached)."""
        ...

    def request_server_scale_out(self, count: int, reason: str) -> List[str]:
        """Request additional servers; returns the names actually requested."""
        ...

    def request_server_scale_in(self, node_names: List[str],
                                reason: str) -> List[str]:
        """Gracefully retire servers; returns the names actually draining."""
        ...


class Autoscaler:
    """Periodic policy-driven elastic membership control."""

    def __init__(
        self,
        env: Environment,
        monitor: Monitor,
        policy: Optional[AutoscalerPolicy],
        executor: ElasticExecutor,
        config: AntDTConfig,
        interval_s: float,
        cooldown_s: float = 0.0,
        server_policy: Optional[AutoscalerPolicy] = None,
        recorder: Optional[object] = None,
    ) -> None:
        if policy is None and server_policy is None:
            raise ValueError("an autoscaler needs a worker policy, a server "
                             "policy, or both")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        self.env = env
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.monitor = monitor
        self.policy = policy
        self.server_policy = server_policy
        self.executor = executor
        self.config = config
        self.interval_s = interval_s
        self.cooldown_s = cooldown_s
        #: Every action the policy emitted, whether or not it was granted.
        self.action_log: List[Action] = []
        self._last_scale_time: Optional[float] = None

    # -- context ------------------------------------------------------------------
    def build_context(self) -> ElasticContext:
        """Snapshot membership, progress and Monitor windows for one decision.

        The bounds are the executor's, the windows and slowness ratio the
        job's AntDT config.  Cluster busy and pending time come from the
        Monitor's third-party information; a bare Monitor reports an idle
        cluster.
        """
        now = self.env.now
        cfg = self.config
        executor = self.executor
        return ElasticContext(
            now=now,
            active_workers=executor.active_worker_names(),
            pending_workers=executor.pending_worker_count(),
            committed_workers=executor.committed_worker_count(),
            min_workers=executor.elastic_min_workers,
            max_workers=executor.elastic_max_workers,
            cluster_busy=bool(self.monitor.third_party("cluster_busy", False)),
            pending_time_s=self.monitor.third_party("pending_time", 0.0),
            remaining_samples=executor.remaining_samples(),
            worker_short_bpts=self.monitor.worker_bpt_means(cfg.transient_window_s, now),
            worker_long_bpts=self.monitor.worker_bpt_means(cfg.persistent_window_s, now),
            worker_throughputs=self.monitor.worker_throughputs(cfg.transient_window_s, now),
            slowness_ratio=cfg.slowness_ratio,
            active_servers=executor.active_server_names(),
            pending_servers=executor.pending_server_count(),
            committed_servers=executor.committed_server_count(),
            min_servers=executor.elastic_min_servers,
            max_servers=executor.elastic_max_servers,
            server_queue_depths=executor.server_queue_depths(),
            server_long_bpts=self.monitor.server_bpt_means(cfg.persistent_window_s, now),
            server_shard_weights=executor.server_shard_weights(),
            serving=executor.serving_slo_snapshot(),
        )

    # -- dispatch -----------------------------------------------------------------
    def _in_cooldown(self) -> bool:
        if self._last_scale_time is None or self.cooldown_s <= 0:
            return False
        return self.env.now - self._last_scale_time < self.cooldown_s

    def dispatch(self, action: Action) -> List[str]:
        """Execute one scaling action; returns the node names it moved."""
        self.action_log.append(action)
        if isinstance(action, ScaleOut):
            granted = self.executor.request_scale_out(action.num_workers, action.reason)
        elif isinstance(action, ScaleIn):
            granted = self.executor.request_scale_in(list(action.node_names),
                                                     action.reason)
        elif isinstance(action, ScaleOutServers):
            granted = self.executor.request_server_scale_out(action.num_servers,
                                                             action.reason)
        elif isinstance(action, ScaleInServers):
            granted = self.executor.request_server_scale_in(
                list(action.node_names), action.reason)
        else:
            raise TypeError(f"autoscalers only emit scaling actions, got {action!r}")
        if granted:
            self._last_scale_time = self.env.now
        return granted

    # -- tracing helpers ----------------------------------------------------------
    def _record_gauges(self, context: ElasticContext) -> None:
        """Sample fleet/server gauges from one decision's frozen context.

        Sampling at decision rounds (rather than on every push) keeps the
        gauge stream mode-invariant: the context snapshot is pinned by the
        fingerprint across coalesce modes and serial/parallel sweeps.
        """
        recorder = self.recorder
        now = context.now
        recorder.gauge("fleet", "active-workers", now, len(context.active_workers))
        recorder.gauge("fleet", "pending-workers", now, context.pending_workers)
        recorder.gauge("fleet", "remaining-samples", now, context.remaining_samples)
        if context.active_servers or context.pending_servers:
            recorder.gauge("fleet", "active-servers", now,
                           len(context.active_servers))
            recorder.gauge("fleet", "pending-servers", now,
                           context.pending_servers)
        for server in sorted(context.server_queue_depths):
            recorder.gauge(server, "queue-depth", now,
                           context.server_queue_depths[server])
        for server in sorted(context.server_shard_weights):
            recorder.gauge(server, "shard-heat", now,
                           context.server_shard_weights[server])
        if context.serving:
            for key in sorted(context.serving):
                recorder.gauge("serving", key, now, context.serving[key])

    @staticmethod
    def _tier_inputs(context: ElasticContext, tier: str) -> Dict[str, object]:
        """The policy-relevant context slice stored on a decision record."""
        inputs: Dict[str, object] = {
            "cluster_busy": context.cluster_busy,
            "pending_time_s": round(context.pending_time_s, 6),
        }
        if tier == "workers":
            inputs["active_workers"] = len(context.active_workers)
            inputs["pending_workers"] = context.pending_workers
            inputs["remaining_samples"] = context.remaining_samples
        else:
            depths = context.server_queue_depths
            inputs["active_servers"] = len(context.active_servers)
            inputs["pending_servers"] = context.pending_servers
            inputs["queue_depth_max"] = max(depths.values()) if depths else 0
            inputs["queue_depth_total"] = sum(depths.values())
            if context.serving:
                serving = context.serving
                inputs["serving_shed_rate"] = round(
                    serving.get("shed_rate", 0.0), 6)
                inputs["serving_arrival_rps"] = round(
                    serving.get("arrival_rps", 0.0), 6)
                p99 = serving.get("p99_s")
                if p99 is not None:
                    inputs["serving_p99_s"] = round(p99, 6)
        return inputs

    def control_step(self) -> List[Action]:
        """Run one decision round immediately (used by tests and :meth:`run`)."""
        now = self.env.now
        recorder = self.recorder
        pairs = [(tier, pol) for tier, pol in (("workers", self.policy),
                                               ("servers", self.server_policy))
                 if pol is not None]
        if self._in_cooldown():
            if recorder.enabled:
                cooldown = self.cooldown_s
                remaining = cooldown - (now - self._last_scale_time)
                reason = (f"cooldown: {remaining:.1f}s of {cooldown:.1f}s "
                          "remaining after the last granted action")
                for tier, pol in pairs:
                    recorder.decision(Decision(
                        time_s=now, tier=tier, policy=pol.name,
                        verdict="cooldown", reason=reason))
            return []
        context = self.build_context()
        if recorder.enabled:
            self._record_gauges(context)
        actions: List[Action] = []
        # The dispatch interleave (worker actions before the server policy
        # runs) is behavior-identical to collect-then-dispatch: ``decide``
        # consumes only the frozen context snapshot, never live executor
        # state, so the action/granted logs keep their historical order.
        for tier, pol in pairs:
            decided = list(pol.decide(context))
            if not decided and recorder.enabled:
                recorder.decision(Decision(
                    time_s=now, tier=tier, policy=pol.name, verdict="hold",
                    reason="no action: signals within thresholds",
                    inputs=self._tier_inputs(context, tier)))
            for action in decided:
                granted = self.dispatch(action)
                if recorder.enabled:
                    requested = tuple(getattr(action, "node_names", ()))
                    count = int(getattr(action, "num_workers", 0)
                                or getattr(action, "num_servers", 0)
                                or len(requested))
                    recorder.decision(Decision(
                        time_s=now, tier=tier, policy=pol.name,
                        verdict=(_ACTION_VERDICTS[type(action)] if granted
                                 else "denied"),
                        reason=action.reason,
                        inputs=self._tier_inputs(context, tier),
                        requested=requested,
                        granted=tuple(granted),
                        count=count))
            actions.extend(decided)
        return actions

    # -- simulated control loop ------------------------------------------------------
    def run(self):
        """Simulation process: decide every ``interval_s`` seconds."""
        while True:
            yield self.env.timeout(self.interval_s)
            if self.executor.finished:
                break
            self.control_step()
