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
from .solutions import AntDTDD, AntDTND, Solution
from .solvers import AccumulationPlan, DeviceGroup, solve_batch_sizes, solve_gradient_accumulation

__all__ = [
    "AccumulationPlan",
    "Action",
    "ActionExecutor",
    "ActionKind",
    "ActionType",
    "AdjustBatchSize",
    "AdjustLearningRate",
    "Agent",
    "AgentGroup",
    "AntDTConfig",
    "AntDTDD",
    "AntDTND",
    "BackupWorkers",
    "ConsistencyModel",
    "ControlContext",
    "Controller",
    "DataAllocator",
    "DeviceGroup",
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
    "solve_gradient_accumulation",
]
