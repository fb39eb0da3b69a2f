"""Elastic scaling subsystem (``repro.elastic``).

First-class elastic membership for simulated training jobs: workers join and
leave *at simulation time*, instead of the fixed-fleet world where the only
reactions are AdjustBatchSize / BackupWorkers / KillRestart.

* :mod:`~repro.elastic.membership` — membership log and the graceful
  scale-in interrupt signal.
* :mod:`~repro.elastic.spec` — the declarative, serializable
  :class:`ElasticSpec` carried by :class:`~repro.scenarios.spec.ScenarioSpec`.
* :mod:`~repro.elastic.policies` — autoscaler policies (utilization /
  straggler-pressure / scheduled-capacity) over an :class:`ElasticContext`.
* :mod:`~repro.elastic.autoscaler` — the :class:`Autoscaler` control loop
  that turns policy decisions into ``SCALE_OUT`` / ``SCALE_IN`` actions.
* :mod:`~repro.elastic.resharding` — shard-accounting audits proving no
  sample is lost or double-trained across membership churn.
* :mod:`~repro.elastic.allreduce` — phase-based elastic membership for the
  closed-form AllReduce job.

Scale-out rides the cluster scheduler's pending-time queue (a busy cluster
delays or effectively denies new capacity); scale-in drains gracefully
through the Stateful DDS so data integrity is preserved.
"""

from .autoscaler import Autoscaler, ElasticExecutor
from .allreduce import (
    ElasticAllReduceJob,
    ElasticAllReduceResult,
    ElasticPhase,
    MembershipChange,
)
from .membership import SCALE_IN, MembershipEvent, MembershipLog, ScaleInSignal
from .policies import (
    POLICIES,
    SERVER_POLICIES,
    AutoscalerPolicy,
    ContendedServerPolicy,
    ElasticContext,
    ScheduledCapacityPolicy,
    ServerQueueDepthPolicy,
    StragglerPressurePolicy,
    UtilizationThresholdPolicy,
    make_policy,
    make_server_policy,
)
from .resharding import (
    MigrationCostModel,
    ReshardEvent,
    ServerShardMap,
    ShardConservationError,
    ShardLedger,
    audit_allocator,
    verify_exactly_once,
    verify_shard_coverage,
)
from .spec import (
    NO_ELASTIC,
    NO_SERVER_ELASTIC,
    ElasticSpec,
    ScaleEvent,
    ServerElasticSpec,
)

__all__ = [
    "Autoscaler",
    "AutoscalerPolicy",
    "ContendedServerPolicy",
    "ElasticAllReduceJob",
    "ElasticAllReduceResult",
    "ElasticContext",
    "ElasticExecutor",
    "ElasticPhase",
    "ElasticSpec",
    "MembershipChange",
    "MembershipEvent",
    "MembershipLog",
    "MigrationCostModel",
    "NO_ELASTIC",
    "NO_SERVER_ELASTIC",
    "POLICIES",
    "ReshardEvent",
    "SCALE_IN",
    "SERVER_POLICIES",
    "ScaleEvent",
    "ScaleInSignal",
    "ScheduledCapacityPolicy",
    "ServerElasticSpec",
    "ServerQueueDepthPolicy",
    "ServerShardMap",
    "ShardConservationError",
    "ShardLedger",
    "StragglerPressurePolicy",
    "UtilizationThresholdPolicy",
    "audit_allocator",
    "make_policy",
    "make_server_policy",
    "verify_exactly_once",
    "verify_shard_coverage",
]
