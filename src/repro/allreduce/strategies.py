"""Batch-size assignment strategies for AllReduce (DDP) training.

The paper's Fig. 9 contrasts three ways of driving a heterogeneous GPU
cluster (4×V100 + 4×P100) under the BSP AllReduce paradigm:

* **Native DDP** — every device gets the same per-device batch ``B / n``; the
  slow devices pace the iteration, the fast devices idle at the barrier.
* **LB-BSP** — per-device batch sizes proportional to measured throughput
  (clipped to device memory).  This levels iteration times but pushes the
  slow devices below their saturation point, wasting their capacity, and it
  keeps the synchronisation frequency of native DDP.
* **AntDT-DD** — every device runs at its full (memory-bound) batch size and
  performs ``C_i`` gradient-accumulation steps chosen to equalise the time
  until the next synchronisation (Eq. 4).  All devices stay saturated and the
  effective samples-per-synchronisation grows, amortising the AllReduce cost
  — which is why the gain is largest for communication-intensive models such
  as MobileNets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.solvers import solve_batch_sizes
from ..sim.hardware import DeviceProfile

__all__ = ["GPUWorkerGroup", "DeviceAssignment", "even_assignment", "lb_bsp_assignment",
           "antdt_dd_assignment"]


@dataclass(frozen=True)
class GPUWorkerGroup:
    """A homogeneous group of GPU workers in the AllReduce job."""

    name: str
    device: DeviceProfile
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.device.kind != "gpu":
            raise ValueError("GPUWorkerGroup requires a GPU device profile")


@dataclass(frozen=True)
class DeviceAssignment:
    """Per-group batch size and gradient accumulation count."""

    group: str
    batch_size: int
    accumulation: int = 1

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.accumulation < 1:
            raise ValueError("accumulation must be >= 1")

    @property
    def samples_per_sync(self) -> int:
        """Samples one device of this group contributes per synchronisation."""
        return self.batch_size * self.accumulation


def even_assignment(groups: Sequence[GPUWorkerGroup], global_batch: int) -> List[DeviceAssignment]:
    """Native DDP: the same per-device batch for every device."""
    total_devices = sum(group.count for group in groups)
    if total_devices <= 0:
        raise ValueError("at least one device is required")
    per_device = max(1, global_batch // total_devices)
    assignments = []
    for group in groups:
        limit = group.device.memory_limit_batch
        if limit is not None and per_device > limit:
            raise ValueError(
                f"native DDP would OOM: per-device batch {per_device} exceeds the "
                f"{group.name} memory limit {limit}"
            )
        assignments.append(DeviceAssignment(group=group.name, batch_size=per_device))
    return assignments


def lb_bsp_assignment(groups: Sequence[GPUWorkerGroup], global_batch: int,
                      model_cost: float = 1.0) -> List[DeviceAssignment]:
    """LB-BSP: throughput-proportional batch sizes, clipped to device memory.

    LB-BSP assumes the compute time is linear in batch size, so it ignores the
    saturation point; the resulting slow-device batches can fall below
    saturation and waste capacity (the drawback AntDT-DD fixes).
    """
    throughputs: Dict[str, float] = {}
    limits: Dict[str, int] = {}
    for group in groups:
        for index in range(group.count):
            worker = f"{group.name}-{index}"
            throughputs[worker] = group.device.samples_per_second / model_cost
            if group.device.memory_limit_batch is not None:
                limits[worker] = int(group.device.memory_limit_batch)
    sizes = solve_batch_sizes(throughputs, global_batch=global_batch, min_batch=1,
                              max_batch=limits or None)
    assignments = []
    for group in groups:
        representative = f"{group.name}-0"
        assignments.append(DeviceAssignment(group=group.name, batch_size=sizes[representative]))
    return assignments


def antdt_dd_assignment(groups: Sequence[GPUWorkerGroup], global_batch: int,
                        model_cost: float = 1.0, max_accumulation: int = 5
                        ) -> List[DeviceAssignment]:
    """AntDT-DD: saturate every device and fill the sync period exactly (Eq. 4).

    The slowest device series, running its full (memory-bound) batch size with
    a single accumulation step, anchors the synchronisation period — its
    compute capacity is the irreducible bottleneck.  Every faster series then
    picks the accumulation count ``C`` and batch size ``B`` (between its
    saturation point and memory limit) that maximise the samples it can
    contribute within that period, so no device idles before the AllReduce and
    the effective samples-per-synchronisation grows beyond ``global_batch``,
    amortising communication.
    """
    if max_accumulation < 1:
        raise ValueError("max_accumulation must be >= 1")

    def full_batch(group: GPUWorkerGroup) -> int:
        return int(group.device.memory_limit_batch or group.device.saturation_batch or 1)

    step_times = {group.name: group.device.batch_time(full_batch(group), model_cost)
                  for group in groups}
    anchor_period = max(step_times.values())

    assignments: List[DeviceAssignment] = []
    for group in groups:
        device = group.device
        saturation = int(device.saturation_batch or 1)
        limit = full_batch(group)
        per_sample = model_cost / device.samples_per_second
        best = DeviceAssignment(group=group.name, batch_size=limit, accumulation=1)
        best_samples = limit if step_times[group.name] <= anchor_period else 0
        for accumulation in range(1, max_accumulation + 1):
            budget = anchor_period / accumulation - device.base_overhead
            if budget <= 0:
                break
            batch = int(min(limit, budget / per_sample))
            if batch < saturation:
                continue
            if device.batch_time(batch, model_cost) * accumulation > anchor_period * 1.0001:
                continue
            samples = batch * accumulation
            if samples > best_samples:
                best_samples = samples
                best = DeviceAssignment(group=group.name, batch_size=batch,
                                        accumulation=accumulation)
        assignments.append(best)

    # Sanity: the effective batch per synchronisation never falls below the
    # user-specified global batch (it is the whole point of the method that it
    # grows past it).
    effective = sum(group.count * assignment.samples_per_sync
                    for group, assignment in zip(groups, assignments))
    if effective < global_batch:
        return lb_bsp_assignment(groups, global_batch, model_cost)
    return assignments
