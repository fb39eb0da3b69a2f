"""AllReduce (PyTorch-DDP style) training simulation.

Unlike the Parameter Server architecture, AllReduce training is strictly
bulk-synchronous and its per-iteration structure is deterministic once the
per-device batch sizes and accumulation counts are fixed (the dedicated GPU
cluster has no random contention).  The job is therefore simulated
iteration-by-iteration in closed form, which keeps the GPU experiments
(paper Fig. 15) instant even at ImageNet scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..ml.data.imagenet import ImageWorkload
from ..ml.models.cost_models import ModelCostProfile
from ..sim.network import NetworkModel, ring_allreduce_time
from .strategies import DeviceAssignment, GPUWorkerGroup

__all__ = ["AllReduceResult", "AllReduceJob"]


@dataclass
class AllReduceResult:
    """Summary of one simulated AllReduce training run."""

    strategy: str
    job_completion_time_s: float
    num_syncs: int
    sync_period_s: float
    allreduce_time_s: float
    samples_per_sync: int
    per_group_compute_s: Dict[str, float]
    per_group_idle_s: Dict[str, float]
    per_group_assignment: Dict[str, DeviceAssignment]

    @property
    def jct(self) -> float:
        """Alias for the job completion time in seconds."""
        return self.job_completion_time_s

    def idle_fraction(self, group: str) -> float:
        """Fraction of the sync period a device of ``group`` spends idle."""
        period = self.per_group_compute_s[group] + self.per_group_idle_s[group]
        if period <= 0:
            return 0.0
        return self.per_group_idle_s[group] / period


class AllReduceJob:
    """One AllReduce training job over a heterogeneous dedicated GPU cluster.

    Parameters
    ----------
    groups:
        The GPU worker groups (e.g. 4×V100 and 4×P100).
    model:
        Cost profile of the model (parameters -> AllReduce volume,
        ``compute_cost`` -> per-sample compute scaling).
    workload:
        How many samples to train for.
    global_batch_size:
        The user-facing global batch size ``B``.
    network:
        Inter-node link model used for the ring AllReduce.
    sync_overhead_s:
        Fixed per-synchronisation cost (optimizer step, hook overhead).
    """

    def __init__(
        self,
        groups: Sequence[GPUWorkerGroup],
        model: ModelCostProfile,
        workload: ImageWorkload,
        global_batch_size: int,
        network: Optional[NetworkModel] = None,
        sync_overhead_s: float = 0.01,
    ) -> None:
        if not groups:
            raise ValueError("at least one GPU worker group is required")
        if global_batch_size <= 0:
            raise ValueError("global_batch_size must be positive")
        if sync_overhead_s < 0:
            raise ValueError("sync_overhead_s must be non-negative")
        self.groups = list(groups)
        self.model = model
        self.workload = workload
        self.global_batch_size = global_batch_size
        self.network = network if network is not None else NetworkModel(latency_s=0.0005,
                                                                        bandwidth_gbps=25.0)
        self.sync_overhead_s = sync_overhead_s

    @property
    def num_devices(self) -> int:
        """Total number of GPU devices in the job."""
        return sum(group.count for group in self.groups)

    def run(self, assignments: Sequence[DeviceAssignment], strategy: str = "custom"
            ) -> AllReduceResult:
        """Simulate the job under the given per-group assignment."""
        if not assignments:
            raise ValueError("assignments must not be empty")
        by_group = {assignment.group: assignment for assignment in assignments}
        missing = {group.name for group in self.groups} - set(by_group)
        if missing:
            raise ValueError(f"assignments missing for groups: {sorted(missing)}")

        # Per-group compute time until the synchronisation point.
        compute: Dict[str, float] = {}
        for group in self.groups:
            assignment = by_group[group.name]
            limit = group.device.memory_limit_batch
            if limit is not None and assignment.batch_size > limit:
                raise ValueError(
                    f"assignment for {group.name} ({assignment.batch_size}) exceeds the "
                    f"memory limit {limit} (OOM)"
                )
            micro = group.device.batch_time(assignment.batch_size, self.model.compute_cost)
            compute[group.name] = micro * assignment.accumulation

        slowest = max(compute.values())
        allreduce = ring_allreduce_time(self.model.num_parameters, self.num_devices, self.network)
        sync_period = slowest + allreduce + self.sync_overhead_s

        samples_per_sync = sum(
            group.count * by_group[group.name].samples_per_sync for group in self.groups
        )
        num_syncs = max(1, math.ceil(self.workload.total_samples / samples_per_sync))
        jct = num_syncs * sync_period

        idle = {name: slowest - value for name, value in compute.items()}
        return AllReduceResult(
            strategy=strategy,
            job_completion_time_s=jct,
            num_syncs=num_syncs,
            sync_period_s=sync_period,
            allreduce_time_s=allreduce,
            samples_per_sync=samples_per_sync,
            per_group_compute_s=compute,
            per_group_idle_s=idle,
            per_group_assignment=dict(by_group),
        )
