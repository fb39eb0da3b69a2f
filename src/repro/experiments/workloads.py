"""Experiment workloads: cluster analogues and scaled parameter presets.

The paper's evaluation uses three clusters (Cluster-A: dedicated CPU PS,
Cluster-B: heterogeneous GPU, Cluster-C: non-dedicated CPU at three sizes) and
paper-scale workloads (45 M Criteo clicks × 3 epochs, one ImageNet epoch,
2.7 B production samples).  Replaying those sizes inside a pure-Python
discrete-event simulator would take hours of wall-clock time per run, so every
experiment is parameterised by an :class:`ExperimentScale` that shrinks the
sample count, the monitoring windows, the straggler periodicity, and the
scheduling delays *together* — preserving the ratios that drive the paper's
conclusions (straggler delay vs. base BPT, restart cost vs. JCT, window length
vs. straggler period).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..core.config import AntDTConfig, ConsistencyModel
from ..psarch.config import PSJobConfig
from ..sim.cluster import Cluster, NodeRole, NodeSpec
from ..sim.hardware import CPU_SERVER_4C, CPU_WORKER_16C, GPU_P100, GPU_V100
from ..sim.network import NetworkModel
from ..sim.scheduler import PendingTimeModel
from ..allreduce.strategies import GPUWorkerGroup

__all__ = [
    "ExperimentScale",
    "SMALL",
    "MEDIUM",
    "LARGE",
    "SCALES",
    "antdt_config",
    "ps_job_config",
    "pending_model",
    "make_cpu_cluster",
    "make_gpu_groups",
]


@dataclass(frozen=True)
class ExperimentScale:
    """A coherent set of scaled-down experiment parameters.

    ``small`` is the default for tests and benchmarks (seconds of wall time),
    ``medium`` matches the paper's Cluster-A node counts, and ``large`` is the
    Cluster-C-like scalability setting.
    """

    name: str
    num_workers: int
    num_servers: int
    per_worker_batch: int
    iterations: int
    epochs: int = 1
    # AntDT framework knobs (scaled versions of §VII-A.5).
    control_interval_s: float = 20.0
    transient_window_s: float = 20.0
    persistent_window_s: float = 45.0
    report_interval_iters: int = 2
    batches_per_shard: int = 4
    kill_restart_cooldown_s: float = 60.0
    # Straggler periodicity (scaled version of 15 min bursts every 30 min).
    straggler_period_s: float = 90.0
    straggler_active_s: float = 45.0
    # Scheduling / failover costs.
    idle_pending_time_s: float = 5.0
    node_init_time_s: float = 10.0
    worker_recovery_s: float = 8.0
    server_recovery_s: float = 12.0
    checkpoint_save_cost_s: float = 4.0

    def __post_init__(self) -> None:
        if self.num_workers <= 0 or self.num_servers < 0:
            raise ValueError("node counts must be positive")
        if self.per_worker_batch <= 0 or self.iterations <= 0 or self.epochs <= 0:
            raise ValueError("workload sizes must be positive")

    @property
    def global_batch_size(self) -> int:
        """The fixed global batch ``B``."""
        return self.per_worker_batch * self.num_workers

    @property
    def num_samples(self) -> int:
        """Samples per epoch, chosen so the run lasts ``iterations`` iterations."""
        return self.global_batch_size * max(1, self.iterations // self.epochs)

    @staticmethod
    def default_servers(num_workers: int) -> int:
        """The paper's roughly 3:1 worker:server provisioning ratio."""
        return max(1, num_workers // 3)

    def with_workers(self, num_workers: int, num_servers: Optional[int] = None) -> "ExperimentScale":
        """A copy of this scale with a different cluster size (Fig. 18 sweeps)."""
        servers = num_servers if num_servers is not None else self.default_servers(num_workers)
        return replace(self, num_workers=num_workers, num_servers=servers)

    @classmethod
    def for_workers(cls, num_workers: int, *, num_servers: Optional[int] = None,
                    iterations: Optional[int] = None, name: Optional[str] = None,
                    ) -> "ExperimentScale":
        """Factory for large-cluster scales (the perf scale sweep).

        Produces a coherent configuration for an arbitrary worker count:
        servers follow the paper's roughly 3:1 worker:server ratio, a reduced
        fixed per-worker batch (1024 vs. the bench scale's 4096) keeps the
        linearly growing global batch moderate, and the iteration count
        shrinks with the cluster size so the total simulated event count —
        and hence benchmark wall time — grows near-linearly rather than
        quadratically as workers are added.  Timing knobs keep the bench-scale
        ratios (windows vs. straggler period vs. restart cost).
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        servers = num_servers if num_servers is not None else cls.default_servers(num_workers)
        if iterations is None:
            iterations = max(12, min(60, 2400 // num_workers))
        return cls(
            name=name if name is not None else f"scale-{num_workers}w",
            num_workers=num_workers,
            num_servers=servers,
            per_worker_batch=1024,
            iterations=iterations,
            batches_per_shard=1,
            control_interval_s=20.0,
            transient_window_s=20.0,
            persistent_window_s=45.0,
            kill_restart_cooldown_s=60.0,
            straggler_period_s=90.0,
            straggler_active_s=45.0,
            idle_pending_time_s=5.0,
            node_init_time_s=10.0,
            worker_recovery_s=8.0,
            server_recovery_s=12.0,
        )


SMALL = ExperimentScale(
    name="small",
    num_workers=6,
    num_servers=3,
    per_worker_batch=4096,
    iterations=80,
    batches_per_shard=1,
)

MEDIUM = ExperimentScale(
    name="medium",
    num_workers=20,
    num_servers=8,
    per_worker_batch=4096,
    iterations=250,
    batches_per_shard=2,
    control_interval_s=30.0,
    transient_window_s=30.0,
    persistent_window_s=60.0,
    straggler_period_s=180.0,
    straggler_active_s=90.0,
)

LARGE = ExperimentScale(
    name="large",
    num_workers=30,
    num_servers=12,
    per_worker_batch=1024,
    iterations=120,
    batches_per_shard=1,
    control_interval_s=30.0,
    transient_window_s=30.0,
    persistent_window_s=60.0,
)

SCALES: Dict[str, ExperimentScale] = {scale.name: scale for scale in (SMALL, MEDIUM, LARGE)}


def antdt_config(scale: ExperimentScale) -> AntDTConfig:
    """AntDT framework configuration scaled to the experiment size."""
    return AntDTConfig(
        batches_per_shard=scale.batches_per_shard,
        # The paper uses λ = 1.5 at production scale; the scaled-down runs use
        # a slightly tighter ratio (still above the paper's 1.3 floor) because
        # the injected transient delay is closer to the shrunken base BPT.
        slowness_ratio=1.4,
        transient_window_s=scale.transient_window_s,
        persistent_window_s=scale.persistent_window_s,
        report_interval_iters=scale.report_interval_iters,
        control_interval_s=scale.control_interval_s,
        kill_restart_cooldown_s=scale.kill_restart_cooldown_s,
        # Batch-size rebalancing may not starve any worker below half of its
        # original share: a worker that keeps holding a shard while consuming
        # almost nothing would otherwise create a very long job tail.
        min_batch_size=max(1, scale.per_worker_batch // 2),
    )


def ps_job_config(
    scale: ExperimentScale,
    consistency: ConsistencyModel = ConsistencyModel.BSP,
    backup_workers: int = 0,
) -> PSJobConfig:
    """Parameter Server job configuration scaled to the experiment size.

    The job trains :data:`~repro.ml.models.cost_models.XDEEPFM_CRITEO`, the
    :class:`~repro.psarch.config.PSJobConfig` default.
    """
    return PSJobConfig(
        consistency=consistency,
        global_batch_size=scale.global_batch_size,
        backup_workers=backup_workers,
        worker_recovery_time_s=scale.worker_recovery_s,
        server_recovery_time_s=scale.server_recovery_s,
        data_poll_interval_s=0.5,
    )


def pending_model(scale: ExperimentScale, busy: bool = False,
                  busy_pending_s: float = 600.0) -> PendingTimeModel:
    """Scheduling-queue model; ``busy=True`` marks the whole run as congested."""
    if busy:
        from ..sim.scheduler import BusyPeriod

        return PendingTimeModel(
            idle_pending_time=scale.idle_pending_time_s,
            busy_periods=(BusyPeriod(start=0.0, end=1e12, pending_time=busy_pending_s),),
        )
    return PendingTimeModel(idle_pending_time=scale.idle_pending_time_s)


def make_cpu_cluster(scale: ExperimentScale, seed: int = 0, dedicated: bool = True,
                     name: Optional[str] = None) -> Cluster:
    """Build the Cluster-A / Cluster-C analogue: CPU workers plus PS servers."""
    specs: List[NodeSpec] = []
    network = NetworkModel(latency_s=0.001, bandwidth_gbps=10.0)
    for index in range(scale.num_workers):
        specs.append(
            NodeSpec(
                name=f"worker-{index}",
                role=NodeRole.WORKER,
                device=CPU_WORKER_16C,
                network=network,
            )
        )
    for index in range(scale.num_servers):
        specs.append(
            NodeSpec(
                name=f"server-{index}",
                role=NodeRole.SERVER,
                device=CPU_SERVER_4C,
                network=network,
            )
        )
    cluster_name = name if name is not None else ("cluster-A" if dedicated else "cluster-C")
    return Cluster(cluster_name, specs, dedicated=dedicated, seed=seed)


def make_gpu_groups(num_v100: int = 4, num_p100: int = 4) -> List[GPUWorkerGroup]:
    """Build the Cluster-B analogue: a mixed V100 + P100 AllReduce group."""
    groups: List[GPUWorkerGroup] = []
    if num_v100 > 0:
        groups.append(GPUWorkerGroup(name="V100", device=GPU_V100, count=num_v100))
    if num_p100 > 0:
        groups.append(GPUWorkerGroup(name="P100", device=GPU_P100, count=num_p100))
    if not groups:
        raise ValueError("the GPU cluster requires at least one device")
    return groups
