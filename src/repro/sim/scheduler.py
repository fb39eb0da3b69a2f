"""Cluster scheduler: pod relaunch, pending time, and busy periods.

The KILL_RESTART action is only worthwhile when the cluster scheduler can
place a fresh pod quickly.  The paper's AntDT-ND therefore gates the action on
the *job pending time* reported by the cluster scheduler (a piece of
"third-party information" the Monitor collects): at peak hours the pending
time can reach dozens of minutes and killing a transient straggler would cost
more than it saves.

:class:`PendingTimeModel` describes how long a newly scheduled pod waits in
the queue as a function of simulation time, and :class:`ClusterScheduler`
executes the relaunch (kill -> pending -> initialisation -> running) as a
simulated process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .cluster import Cluster, Node
from .engine import Environment
from .failures import ErrorCode, FailureInjector

__all__ = ["PendingTimeModel", "BusyPeriod", "ClusterScheduler"]


@dataclass(frozen=True)
class BusyPeriod:
    """A time window during which the cluster scheduling queue is congested."""

    start: float
    end: float
    pending_time: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("busy period must have end > start")
        if self.pending_time < 0:
            raise ValueError("pending_time must be non-negative")

    def contains(self, now: float) -> bool:
        """True when ``now`` falls inside the busy window."""
        return self.start <= now < self.end


@dataclass
class PendingTimeModel:
    """Job pending time as a function of simulation time.

    Outside every busy period a relaunched pod waits ``idle_pending_time``
    seconds in the scheduling queue; inside a busy period it waits the
    period's (much larger) pending time.
    """

    idle_pending_time: float = 30.0
    busy_periods: Sequence[BusyPeriod] = field(default_factory=tuple)
    busy_threshold: float = 300.0

    def __post_init__(self) -> None:
        if self.idle_pending_time < 0:
            raise ValueError("idle_pending_time must be non-negative")
        self.busy_periods = tuple(self.busy_periods)

    def pending_time(self, now: float) -> float:
        """Estimated queue wait for a pod submitted at ``now``."""
        for period in self.busy_periods:
            if period.contains(now):
                return period.pending_time
        return self.idle_pending_time

    def is_busy(self, now: float) -> bool:
        """True when the pending time exceeds the busy threshold.

        AntDT-ND only fires KILL_RESTART when the cluster is *not* busy.
        """
        return self.pending_time(now) >= self.busy_threshold


class ClusterScheduler:
    """Executes pod kill/relaunch operations on the simulated cluster.

    Parameters
    ----------
    env:
        The simulation environment.
    cluster:
        The cluster whose nodes the scheduler manages.
    pending_model:
        Queue-wait model (third-party information for the Monitor).
    node_init_time:
        Seconds a fresh pod spends initialising before it can join training
        (image pull, process start, communication-world rebuild).
    failure_injector:
        Optional injector that records every relaunch with its error code.

    Every relaunch and every elastic placement lands in :attr:`restart_log`
    or :attr:`provision_log` as ``(start, node, total delay)``.
    """

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        pending_model: Optional[PendingTimeModel] = None,
        node_init_time: float = 60.0,
        failure_injector: Optional[FailureInjector] = None,
    ) -> None:
        if node_init_time < 0:
            raise ValueError("node_init_time must be non-negative")
        self.env = env
        self.cluster = cluster
        self.pending_model = pending_model if pending_model is not None else PendingTimeModel()
        self.node_init_time = node_init_time
        self.failure_injector = failure_injector
        self.restart_log: List[Tuple[float, str, float]] = []
        self.provision_log: List[Tuple[float, str, float]] = []

    # -- third-party information ------------------------------------------------
    def pending_time(self) -> float:
        """Current estimated scheduling-queue wait (seconds)."""
        return self.pending_model.pending_time(self.env.now)

    def is_busy(self) -> bool:
        """Whether the cluster is currently congested."""
        return self.pending_model.is_busy(self.env.now)

    # -- relaunch -----------------------------------------------------------------
    def restart_delay(self) -> float:
        """Total delay a relaunch started now would incur (pending + init)."""
        return self.pending_time() + self.node_init_time

    def relaunch(self, node: Node, code: ErrorCode = ErrorCode.PROACTIVE_KILL):
        """Simulated process that relaunches ``node``.

        Marks the node as restarting, waits for the scheduling pending time
        plus the pod initialisation time, then completes the restart (the new
        pod lands on an uncontended machine).  Returns the total delay.
        """
        start = self.env.now
        node.mark_restarting()
        if self.failure_injector is not None:
            self.failure_injector.record(node.name, code, start)
        delay = self.restart_delay()
        yield self.env.timeout(delay)
        node.complete_restart()
        total = self.env.now - start
        self.restart_log.append((start, node.name, total))
        return total

    def restarts_of(self, node_name: str) -> int:
        """Number of relaunches performed for a node."""
        return sum(1 for _, name, _ in self.restart_log if name == node_name)

    # -- elastic provisioning ------------------------------------------------------
    def provision(self, node: Node):
        """Simulated process that places a newly requested (PENDING) node.

        Elastic scale-out rides exactly the same queue as a relaunch: the pod
        waits the scheduler's *current* pending time plus the initialisation
        time before :meth:`Node.complete_join` makes it RUNNING.  On a busy
        cluster a requested node therefore arrives late — or effectively never,
        if the job finishes first — which is the pending-time gate the AntDT-ND
        policy reasons about.  Returns the total delay.
        """
        start = self.env.now
        delay = self.restart_delay()
        yield self.env.timeout(delay)
        node.complete_join()
        total = self.env.now - start
        self.provision_log.append((start, node.name, total))
        return total
