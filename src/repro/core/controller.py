"""The AntDT Controller.

The Controller periodically ingests aggregated statistics from the Monitor,
asks the configured straggler-mitigation *solution* which actions to take,
and dispatches them: global actions are broadcast through the AgentGroup
(so every worker applies them in the same iteration), node actions
(KILL_RESTART) are handed to the training job's executor, which kills the pod
and drives the relaunch through the cluster scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Protocol

from ..sim.engine import Environment
from .actions import (
    Action,
    AdjustBatchSize,
    AdjustLearningRate,
    BackupWorkers,
    KillRestart,
    NoneAction,
    ScaleIn,
    ScaleInServers,
    ScaleOut,
    ScaleOutServers,
)
from .agent import AgentGroup
from .config import AntDTConfig, ConsistencyModel
from .monitor import Monitor

__all__ = ["ControlContext", "ActionExecutor", "Controller"]


@dataclass
class ControlContext:
    """A snapshot of everything a solution may use to decide on actions."""

    now: float
    config: AntDTConfig
    consistency: ConsistencyModel
    global_batch_size: int
    active_workers: List[str]
    active_servers: List[str]
    worker_short_bpts: Dict[str, float]
    worker_long_bpts: Dict[str, float]
    worker_throughputs: Dict[str, float]
    server_long_bpts: Dict[str, float]
    cluster_busy: bool = False
    pending_time_s: float = 0.0
    restarts_per_node: Dict[str, int] = field(default_factory=dict)
    last_restart_time: Dict[str, float] = field(default_factory=dict)

    def restarts_of(self, node: str) -> int:
        """How many times a node has already been relaunched."""
        return self.restarts_per_node.get(node, 0)

    def seconds_since_restart(self, node: str) -> float:
        """Seconds since the node's last relaunch (inf if never relaunched)."""
        if node not in self.last_restart_time:
            return float("inf")
        return self.now - self.last_restart_time[node]


class ActionExecutor(Protocol):
    """What the Controller needs from the training job to execute node actions."""

    @property
    def finished(self) -> bool:
        """True once the training job has completed."""
        ...

    def active_worker_names(self) -> List[str]:
        """Workers currently participating in training."""
        ...

    def active_server_names(self) -> List[str]:
        """Servers currently participating in training."""
        ...

    def request_kill_restart(self, node_name: str, reason: str) -> bool:
        """Kill and relaunch a node; returns False if the request was refused."""
        ...

    def set_backup_workers(self, num_backup: int) -> None:
        """Configure how many slowest gradients are dropped per iteration."""
        ...

    def apply_lr_factors(self, factors: Dict[str, float]) -> None:
        """Scale per-worker learning rates (ADJUST_LR)."""
        ...

    def restart_counts(self) -> Dict[str, int]:
        """Relaunches performed so far, per node."""
        ...

    def last_restart_times(self) -> Dict[str, float]:
        """Simulation time of the most recent relaunch, per node."""
        ...

    def request_scale_out(self, count: int, reason: str) -> List[str]:
        """Request additional workers; returns the names actually requested.

        Executors without elastic membership (e.g. a static-partition job)
        may refuse by returning an empty list.
        """
        ...

    def request_scale_in(self, node_names: "List[str]", reason: str) -> List[str]:
        """Gracefully retire workers; returns the names actually retiring."""
        ...

    def request_server_scale_out(self, count: int, reason: str) -> List[str]:
        """Request additional parameter servers; returns the names requested."""
        ...

    def request_server_scale_in(self, node_names: "List[str]",
                                reason: str) -> List[str]:
        """Gracefully retire parameter servers; returns the names draining."""
        ...


class Controller:
    """Periodic control loop dispatching straggler-mitigation actions."""

    def __init__(
        self,
        env: Environment,
        monitor: Monitor,
        agent_group: AgentGroup,
        solution: "Solution",
        executor: ActionExecutor,
        config: AntDTConfig,
        consistency: ConsistencyModel,
        global_batch_size: int,
    ) -> None:
        self.env = env
        self.monitor = monitor
        self.agent_group = agent_group
        self.solution = solution
        self.executor = executor
        self.config = config
        self.consistency = consistency
        self.global_batch_size = global_batch_size
        self.action_log: List[Action] = []
        self.decision_times: List[float] = []
        self._stopped = False

    # -- context ------------------------------------------------------------------
    def build_context(self) -> ControlContext:
        """Assemble the control context from the Monitor and the executor.

        Cluster busy and pending time are the Monitor's third-party
        information; a Monitor without providers reports an idle cluster.
        """
        now = self.env.now
        cfg = self.config
        return ControlContext(
            now=now,
            config=cfg,
            consistency=self.consistency,
            global_batch_size=self.global_batch_size,
            active_workers=self.executor.active_worker_names(),
            active_servers=self.executor.active_server_names(),
            worker_short_bpts=self.monitor.worker_bpt_means(cfg.transient_window_s, now),
            worker_long_bpts=self.monitor.worker_bpt_means(cfg.persistent_window_s, now),
            worker_throughputs=self.monitor.worker_throughputs(cfg.transient_window_s, now),
            server_long_bpts=self.monitor.server_bpt_means(cfg.persistent_window_s, now),
            cluster_busy=bool(self.monitor.third_party("cluster_busy", False)),
            pending_time_s=self.monitor.third_party("pending_time", 0.0),
            restarts_per_node=self.executor.restart_counts(),
            last_restart_time=self.executor.last_restart_times(),
        )

    # -- dispatch ------------------------------------------------------------------
    def dispatch(self, action: Action) -> None:
        """Execute one action via the appropriate channel."""
        self.action_log.append(action)
        if isinstance(action, NoneAction):
            return
        if isinstance(action, KillRestart):
            self.executor.request_kill_restart(action.node_name, action.reason)
            return
        if isinstance(action, BackupWorkers):
            self.executor.set_backup_workers(action.num_backup)
            self.agent_group.broadcast(action)
            return
        if isinstance(action, AdjustLearningRate):
            self.executor.apply_lr_factors(action.factors)
            self.agent_group.broadcast(action)
            return
        if isinstance(action, AdjustBatchSize):
            self.agent_group.broadcast(action)
            return
        if isinstance(action, ScaleOut):
            self.executor.request_scale_out(action.num_workers, action.reason)
            return
        if isinstance(action, ScaleIn):
            self.executor.request_scale_in(list(action.node_names), action.reason)
            return
        if isinstance(action, ScaleOutServers):
            self.executor.request_server_scale_out(action.num_servers, action.reason)
            return
        if isinstance(action, ScaleInServers):
            self.executor.request_server_scale_in(list(action.node_names),
                                                  action.reason)
            return
        raise TypeError(f"unknown action type: {action!r}")

    def control_step(self) -> List[Action]:
        """Run one decision round immediately (used by tests and by :meth:`run`)."""
        context = self.build_context()
        actions = self.solution.decide(context)
        self.decision_times.append(self.env.now)
        for action in actions:
            self.dispatch(action)
        return actions

    # -- simulated control loop ------------------------------------------------------
    def run(self):
        """Simulation process: decide every ``control_interval_s`` seconds."""
        while not self._stopped:
            yield self.env.timeout(self.config.control_interval_s)
            if self.executor.finished or self._stopped:
                break
            self.control_step()

    def stop(self) -> None:
        """Stop the control loop after the current interval."""
        self._stopped = True
