"""The AntDT framework: Stateful DDS, Monitor, Controller, Agent, solutions.

This package is the paper's primary contribution.  It deliberately contains
no knowledge of the simulation substrate or of any particular training
architecture: the Parameter Server and AllReduce jobs in
:mod:`repro.psarch` / :mod:`repro.allreduce` plug into it through the
:class:`~repro.core.controller.ActionExecutor` protocol and the
:class:`~repro.core.sharding.DataAllocator` interface.
"""

from .actions import (
    Action,
    ActionKind,
    ActionType,
    AdjustBatchSize,
    AdjustLearningRate,
    BackupWorkers,
    KillRestart,
    NoneAction,
    ScaleIn,
    ScaleOut,
)
from .agent import Agent, AgentGroup
from .config import AntDTConfig, ConsistencyModel
from .controller import ActionExecutor, ControlContext, Controller
from .detection import StragglerReport, classify_stragglers, detect_stragglers
from .monitor import Monitor
from .shard import SampleRange, Shard, ShardState
from .sharding import DataAllocator, StatefulDDS, StaticPartition
from .shuffler import ShardShuffler
from .solutions import AntDTND, Solution
from .solvers import solve_batch_sizes

__all__ = [
    "Action",
    "ActionExecutor",
    "ActionKind",
    "ActionType",
    "AdjustBatchSize",
    "AdjustLearningRate",
    "Agent",
    "AgentGroup",
    "AntDTConfig",
    "AntDTND",
    "BackupWorkers",
    "ConsistencyModel",
    "ControlContext",
    "Controller",
    "DataAllocator",
    "KillRestart",
    "Monitor",
    "NoneAction",
    "SampleRange",
    "ScaleIn",
    "ScaleOut",
    "Shard",
    "ShardShuffler",
    "ShardState",
    "Solution",
    "StatefulDDS",
    "StaticPartition",
    "StragglerReport",
    "classify_stragglers",
    "detect_stragglers",
    "solve_batch_sizes",
]
