"""Discrete-event cluster simulation substrate.

This subpackage replaces the physical Ant Group clusters used in the paper:
it provides the simulation engine, device profiles, contention (straggler)
models, the network cost model, failure taxonomy and injection, the cluster
topology, the cluster scheduler (pod relaunch, pending time) and a metrics
recorder that every experiment reads its plots and tables from.
"""

from .cluster import Cluster, Node, NodeRole, NodeSpec, NodeStatus
from .contention import (
    CompositeContention,
    ConstantContention,
    ContentionModel,
    DeterministicSlowdown,
    NoContention,
    PeriodicContention,
    RandomContention,
)
from .engine import AllOf, AnyOf, Environment, Event, Interrupt, Process, Store, Timeout
from .failures import ErrorCode, FailureInjector, NodeFailure
from .hardware import (
    CPU_SERVER_4C,
    CPU_SERVER_12C,
    CPU_WORKER_8C,
    CPU_WORKER_16C,
    DEVICE_REGISTRY,
    GPU_P100,
    GPU_V100,
    DeviceProfile,
    compute_time,
)
from .metrics import MetricPoint, MetricSeries, MetricsRecorder
from .network import NetworkModel, parameter_bytes, ring_allreduce_time
from .scheduler import BusyPeriod, ClusterScheduler, PendingTimeModel

__all__ = [
    "AllOf",
    "AnyOf",
    "BusyPeriod",
    "CPU_SERVER_12C",
    "CPU_SERVER_4C",
    "CPU_WORKER_16C",
    "CPU_WORKER_8C",
    "Cluster",
    "ClusterScheduler",
    "CompositeContention",
    "ConstantContention",
    "ContentionModel",
    "DEVICE_REGISTRY",
    "DeterministicSlowdown",
    "DeviceProfile",
    "Environment",
    "ErrorCode",
    "Event",
    "FailureInjector",
    "GPU_P100",
    "GPU_V100",
    "Interrupt",
    "MetricPoint",
    "MetricSeries",
    "MetricsRecorder",
    "NetworkModel",
    "NoContention",
    "Node",
    "NodeFailure",
    "NodeRole",
    "NodeSpec",
    "NodeStatus",
    "PendingTimeModel",
    "PeriodicContention",
    "Process",
    "RandomContention",
    "Store",
    "Timeout",
    "compute_time",
    "parameter_bytes",
    "ring_allreduce_time",
]
