"""Elastic membership for the closed-form AllReduce job.

AllReduce training (:mod:`repro.allreduce.job`) is simulated in closed form:
the per-sync period is deterministic once the device groups and batch
assignments are fixed.  Membership churn therefore splits a run into
*phases* — each with its own group counts, sync period and throughput — plus
a fixed re-rendezvous cost at every boundary (the communication world must be
rebuilt when ranks join or leave, exactly what makes elasticity expensive on
real DDP jobs).

:class:`ElasticAllReduceJob` replays a :class:`MembershipChange` schedule
against a base job and reports the phase-by-phase breakdown, so elastic GPU
scenarios stay as instant as the paper's Fig. 15 experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from ..allreduce.job import AllReduceJob, AllReduceResult
from ..allreduce.strategies import DeviceAssignment, GPUWorkerGroup

__all__ = ["MembershipChange", "ElasticPhase", "ElasticAllReduceResult",
           "ElasticAllReduceJob"]


@dataclass(frozen=True)
class MembershipChange:
    """One scheduled AllReduce membership change.

    ``after_samples`` is the cumulative trained-sample threshold at which the
    change takes effect (phase boundaries are progress-based because the
    closed-form job has no event clock); ``group_counts`` is the device count
    per group *after* the change (a count of 0 removes the group for the
    phase).
    """

    after_samples: int
    group_counts: Dict[str, int]
    rendezvous_cost_s: float = 5.0

    def __post_init__(self) -> None:
        if self.after_samples <= 0:
            raise ValueError("after_samples must be positive")
        if not self.group_counts:
            raise ValueError("a membership change must give at least one group count")
        if any(count < 0 for count in self.group_counts.values()):
            raise ValueError("group counts must be non-negative")
        if all(count == 0 for count in self.group_counts.values()):
            raise ValueError("a membership change cannot remove every device")
        if self.rendezvous_cost_s < 0:
            raise ValueError("rendezvous_cost_s must be non-negative")


@dataclass(frozen=True)
class ElasticPhase:
    """One constant-membership segment of an elastic AllReduce run."""

    group_counts: Dict[str, int]
    num_syncs: int
    sync_period_s: float
    samples_per_sync: int
    duration_s: float
    samples_trained: int


@dataclass
class ElasticAllReduceResult:
    """Summary of one elastic AllReduce run."""

    phases: List[ElasticPhase]
    job_completion_time_s: float
    rendezvous_total_s: float
    samples_trained: int

    @property
    def jct(self) -> float:
        """Alias for the job completion time in seconds."""
        return self.job_completion_time_s

    @property
    def num_syncs(self) -> int:
        """Synchronisations over every phase."""
        return sum(phase.num_syncs for phase in self.phases)


class ElasticAllReduceJob:
    """Replay a membership-change schedule against a closed-form job."""

    def __init__(self, job: AllReduceJob) -> None:
        self.job = job

    def _scaled_job(self, group_counts: Dict[str, int]) -> AllReduceJob:
        groups: List[GPUWorkerGroup] = []
        for group in self.job.groups:
            count = group_counts.get(group.name, group.count)
            if count > 0:
                groups.append(replace(group, count=count))
        if not groups:
            raise ValueError("membership change removed every device group")
        return AllReduceJob(
            groups=groups,
            model=self.job.model,
            workload=self.job.workload,
            global_batch_size=self.job.global_batch_size,
            network=self.job.network,
            sync_overhead_s=self.job.sync_overhead_s,
        )

    def run(self, assignments: Sequence[DeviceAssignment],
            changes: Sequence[MembershipChange] = (),
            strategy: str = "elastic") -> ElasticAllReduceResult:
        """Simulate the job phase by phase under the change schedule.

        Assignments apply per device group and carry across phases; a change
        only moves device *counts*.  Changes must be ordered by strictly
        increasing ``after_samples``; changes scheduled past the end of the
        workload simply never take effect.
        """
        thresholds = [change.after_samples for change in changes]
        if thresholds != sorted(set(thresholds)):
            raise ValueError(
                "membership changes must be ordered by strictly increasing "
                "after_samples")
        total = self.job.workload.total_samples
        current_counts: Dict[str, int] = {group.name: group.count
                                          for group in self.job.groups}
        phases: List[ElasticPhase] = []
        trained = 0
        elapsed = 0.0
        rendezvous_total = 0.0
        pending = list(changes)
        while trained < total:
            # Phase horizon: up to the next membership change (or the end).
            horizon = min(pending[0].after_samples, total) if pending else total
            quota = horizon - trained
            phase_job = self._scaled_job(current_counts)
            present = {group.name for group in phase_job.groups}
            phase_result: AllReduceResult = phase_job.run(
                [assignment for assignment in assignments
                 if assignment.group in present],
                strategy=strategy)
            per_sync = phase_result.samples_per_sync
            syncs = max(1, math.ceil(quota / per_sync))
            duration = syncs * phase_result.sync_period_s
            samples = min(syncs * per_sync, quota)
            phases.append(ElasticPhase(
                group_counts=dict(current_counts),
                num_syncs=syncs,
                sync_period_s=phase_result.sync_period_s,
                samples_per_sync=per_sync,
                duration_s=duration,
                samples_trained=samples,
            ))
            trained += samples
            elapsed += duration
            if pending and trained >= pending[0].after_samples:
                change = pending.pop(0)
                current_counts.update(change.group_counts)
                elapsed += change.rendezvous_cost_s
                rendezvous_total += change.rendezvous_cost_s
        return ElasticAllReduceResult(
            phases=phases,
            job_completion_time_s=elapsed,
            rendezvous_total_s=rendezvous_total,
            samples_trained=trained,
        )
