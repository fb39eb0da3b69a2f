"""The straggler-mitigation action set (paper Table II).

Actions are plain data objects produced by a solution inside the Controller
and executed by the Agents.  They fall into two types:

* **Global actions** require synchronisation among nodes so every worker
  applies them in the same iteration: ``ADJUST_BS``, ``BACKUP_WORKERS``,
  ``ADJUST_LR``.
* **Node actions** affect a single node and need no synchronisation:
  ``KILL_RESTART``, the elastic-membership pair ``SCALE_OUT`` /
  ``SCALE_IN`` (the joining/leaving node synchronises through the data
  allocator and the barrier, not through an agent broadcast), and the
  server-tier variants ``SCALE_OUT_SERVERS`` / ``SCALE_IN_SERVERS``
  (membership changes of the parameter-server fleet; workers synchronise
  through the re-partitioned shard map, not through a broadcast).

``NONE`` is the dummy action a solution returns when no straggler is present.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "ActionKind",
    "ActionType",
    "Action",
    "AdjustBatchSize",
    "BackupWorkers",
    "KillRestart",
    "AdjustLearningRate",
    "ScaleOut",
    "ScaleIn",
    "ScaleOutServers",
    "ScaleInServers",
    "NoneAction",
]


class ActionKind(enum.Enum):
    """Synchronisation requirement of an action."""

    GLOBAL = "global"
    NODE = "node"
    NONE = "none"


class ActionType(enum.Enum):
    """The pre-defined action set of the AntDT Controller (paper Table II)."""

    ADJUST_BS = "adjust_bs"
    BACKUP_WORKERS = "backup_workers"
    KILL_RESTART = "kill_restart"
    ADJUST_LR = "adjust_lr"
    SCALE_OUT = "scale_out"
    SCALE_IN = "scale_in"
    SCALE_OUT_SERVERS = "scale_out_servers"
    SCALE_IN_SERVERS = "scale_in_servers"
    NONE = "none"


@dataclass(frozen=True)
class Action:
    """Base class for actions; concrete actions add their payload."""

    @property
    def action_type(self) -> ActionType:
        """Which entry of the action set this is."""
        raise NotImplementedError

    @property
    def kind(self) -> ActionKind:
        """Whether the action is global (synchronised) or per-node."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line description for logs and experiment reports."""
        return self.action_type.value


@dataclass(frozen=True)
class AdjustBatchSize(Action):
    """Load-balancing action: assign a new batch size to every worker for
    the next iteration."""

    batch_sizes: Dict[str, int]

    def __post_init__(self) -> None:
        if not self.batch_sizes:
            raise ValueError("ADJUST_BS requires at least one worker assignment")
        for worker, batch in self.batch_sizes.items():
            if batch <= 0:
                raise ValueError(f"batch size for {worker!r} must be positive, got {batch}")

    @property
    def action_type(self) -> ActionType:
        return ActionType.ADJUST_BS

    @property
    def kind(self) -> ActionKind:
        return ActionKind.GLOBAL

    def describe(self) -> str:
        sizes = ", ".join(f"{worker}={size}" for worker, size in sorted(self.batch_sizes.items()))
        return f"ADJUST_BS({sizes})"


@dataclass(frozen=True)
class BackupWorkers(Action):
    """Replication action: drop the gradients of the ``num_backup`` slowest
    workers each iteration (their samples are re-queued by the DDS)."""

    num_backup: int

    def __post_init__(self) -> None:
        if self.num_backup < 0:
            raise ValueError("num_backup must be non-negative")

    @property
    def action_type(self) -> ActionType:
        return ActionType.BACKUP_WORKERS

    @property
    def kind(self) -> ActionKind:
        return ActionKind.GLOBAL

    def describe(self) -> str:
        return f"BACKUP_WORKERS(b={self.num_backup})"


@dataclass(frozen=True)
class KillRestart(Action):
    """Scheduling action: kill a straggling node and relaunch it elsewhere."""

    node_name: str
    reason: str = "persistent straggler"

    def __post_init__(self) -> None:
        if not self.node_name:
            raise ValueError("KILL_RESTART requires a node name")

    @property
    def action_type(self) -> ActionType:
        return ActionType.KILL_RESTART

    @property
    def kind(self) -> ActionKind:
        return ActionKind.NODE

    def describe(self) -> str:
        return f"KILL_RESTART({self.node_name})"


@dataclass(frozen=True)
class AdjustLearningRate(Action):
    """Optimization action: scale per-worker learning rates (penalise laggards)."""

    factors: Dict[str, float]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("ADJUST_LR requires at least one worker factor")
        for worker, factor in self.factors.items():
            if factor <= 0:
                raise ValueError(f"learning-rate factor for {worker!r} must be positive")

    @property
    def action_type(self) -> ActionType:
        return ActionType.ADJUST_LR

    @property
    def kind(self) -> ActionKind:
        return ActionKind.GLOBAL

    def describe(self) -> str:
        factors = ", ".join(f"{worker}={factor:g}" for worker, factor in sorted(self.factors.items()))
        return f"ADJUST_LR({factors})"


@dataclass(frozen=True)
class ScaleOut(Action):
    """Elastic-membership action: request ``num_workers`` additional workers.

    The requested pods ride the cluster scheduler's pending-time queue, so on
    a busy cluster they arrive late (or after the job already finished).
    """

    num_workers: int = 1
    reason: str = "scale out"

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError("SCALE_OUT requires a positive worker count")

    @property
    def action_type(self) -> ActionType:
        return ActionType.SCALE_OUT

    @property
    def kind(self) -> ActionKind:
        return ActionKind.NODE

    def describe(self) -> str:
        return f"SCALE_OUT(+{self.num_workers})"


@dataclass(frozen=True)
class ScaleIn(Action):
    """Elastic-membership action: gracefully retire the named workers.

    A retiring worker drains: its in-flight samples are requeued with the
    data allocator (nothing is lost or double-trained), it leaves the BSP
    barrier, and its node departs the cluster membership for good.
    """

    node_names: Tuple[str, ...]
    reason: str = "scale in"

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_names", tuple(self.node_names))
        if not self.node_names:
            raise ValueError("SCALE_IN requires at least one node name")
        if len(set(self.node_names)) != len(self.node_names):
            raise ValueError("SCALE_IN node names must be unique")

    @property
    def action_type(self) -> ActionType:
        return ActionType.SCALE_IN

    @property
    def kind(self) -> ActionKind:
        return ActionKind.NODE

    def describe(self) -> str:
        return f"SCALE_IN({', '.join(self.node_names)})"


@dataclass(frozen=True)
class ScaleOutServers(Action):
    """Elastic-membership action: request ``num_servers`` additional
    parameter servers.

    The requested pods ride the same scheduling queue as worker scale-out;
    once placed, a joining server receives its slice of the re-partitioned
    parameter shard map before it starts serving pushes.
    """

    num_servers: int = 1
    reason: str = "server scale out"

    def __post_init__(self) -> None:
        if self.num_servers <= 0:
            raise ValueError("SCALE_OUT_SERVERS requires a positive server count")

    @property
    def action_type(self) -> ActionType:
        return ActionType.SCALE_OUT_SERVERS

    @property
    def kind(self) -> ActionKind:
        return ActionKind.NODE

    def describe(self) -> str:
        return f"SCALE_OUT_SERVERS(+{self.num_servers})"


@dataclass(frozen=True)
class ScaleInServers(Action):
    """Elastic-membership action: gracefully retire the named servers.

    A retiring server drains: workers stop routing new pushes to it, its
    parameter shards are re-partitioned onto the surviving servers (the
    handoff is charged by the migration cost model), and its queued push
    requests are re-routed so no worker waits on a dead acknowledgement.
    """

    node_names: Tuple[str, ...]
    reason: str = "server scale in"

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_names", tuple(self.node_names))
        if not self.node_names:
            raise ValueError("SCALE_IN_SERVERS requires at least one node name")
        if len(set(self.node_names)) != len(self.node_names):
            raise ValueError("SCALE_IN_SERVERS node names must be unique")

    @property
    def action_type(self) -> ActionType:
        return ActionType.SCALE_IN_SERVERS

    @property
    def kind(self) -> ActionKind:
        return ActionKind.NODE

    def describe(self) -> str:
        return f"SCALE_IN_SERVERS({', '.join(self.node_names)})"


@dataclass(frozen=True)
class NoneAction(Action):
    """The dummy action: no straggler detected, keep training."""

    @property
    def action_type(self) -> ActionType:
        return ActionType.NONE

    @property
    def kind(self) -> ActionKind:
        return ActionKind.NONE

    def describe(self) -> str:
        return "NONE"
