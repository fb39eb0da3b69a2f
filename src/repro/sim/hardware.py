"""Device profiles and compute-cost models.

The paper relies on two empirical facts about batch processing time (BPT):

* On CPU devices the computation time grows linearly with batch size
  (paper Fig. 7), which justifies the linear throughput model
  ``F(B) = B / v`` used by the ADJUST_BS solver (Eq. 3).
* On GPU devices BPT is flat below a *saturation point* (the device is not
  fully utilised) and then grows linearly up to a *batch size limitation*
  where memory would overflow (paper Fig. 8).  AntDT-DD exploits exactly this
  curve with gradient accumulation (Eq. 4).

This module provides :class:`DeviceProfile` objects for the devices used in
the paper's clusters (16-core CPU workers, 4/12-core CPU servers, V100 and
P100 GPUs) and the BPT cost functions built on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "DeviceProfile",
    "CPU_WORKER_16C",
    "CPU_WORKER_8C",
    "CPU_SERVER_4C",
    "CPU_SERVER_12C",
    "GPU_V100",
    "GPU_P100",
    "DEVICE_REGISTRY",
    "compute_time",
]


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of a compute device.

    Attributes
    ----------
    name:
        Human readable device name (``"V100"``, ``"cpu-16c"``...).
    kind:
        ``"cpu"`` or ``"gpu"``; selects the BPT curve shape.
    samples_per_second:
        Sustained throughput of the device on the reference model, in
        samples per second, once the device is saturated.
    base_overhead:
        Fixed per-iteration overhead in seconds (kernel launches, Python
        dispatch, optimizer step) independent of the batch size.
    saturation_batch:
        For GPUs: the batch size below which BPT stays flat because the
        device is under-utilised (paper Fig. 8 "saturation point").
    memory_limit_batch:
        For GPUs: the largest batch size that fits in 95% of device memory
        (paper Fig. 8 "batch size limitation").  ``None`` means unbounded
        (CPU devices page to host memory instead of failing).
    memory_gb:
        Device memory, used only for reporting.
    """

    name: str
    kind: str
    samples_per_second: float
    base_overhead: float = 0.05
    saturation_batch: Optional[int] = None
    memory_limit_batch: Optional[int] = None
    memory_gb: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("cpu", "gpu"):
            raise ValueError(f"unknown device kind {self.kind!r}")
        if self.samples_per_second <= 0:
            raise ValueError("samples_per_second must be positive")
        if self.kind == "gpu" and self.saturation_batch is None:
            raise ValueError("GPU profiles require a saturation_batch")

    def batch_time(self, batch_size: int, model_cost: float = 1.0) -> float:
        """Return the computation time for one batch of ``batch_size`` samples.

        ``model_cost`` scales the per-sample cost relative to the reference
        model (e.g. ResNet-101 is heavier than MobileNets).
        """
        return compute_time(self, batch_size, model_cost)

    def throughput(self, batch_size: int, model_cost: float = 1.0) -> float:
        """Samples per second when running batches of ``batch_size``."""
        duration = self.batch_time(batch_size, model_cost)
        return batch_size / duration if duration > 0 else float("inf")


def compute_time(device: DeviceProfile, batch_size: int, model_cost: float = 1.0) -> float:
    """Batch processing (compute-only) time for ``batch_size`` samples.

    CPU devices: linear in batch size (paper Fig. 7).
    GPU devices: flat up to the saturation point, then linear (paper Fig. 8).

    Raises
    ------
    ValueError
        If the batch exceeds the device memory limit (GPU OOM), mirroring the
        "batch size limitation" constraint of Eq. 4.
    """
    if batch_size < 0:
        raise ValueError("batch_size must be non-negative")
    if batch_size == 0:
        return device.base_overhead
    per_sample = model_cost / device.samples_per_second
    if device.kind == "cpu":
        return device.base_overhead + batch_size * per_sample
    # GPU: under the saturation point the device is latency bound.
    if device.memory_limit_batch is not None and batch_size > device.memory_limit_batch:
        raise ValueError(
            f"batch size {batch_size} exceeds the memory limit "
            f"{device.memory_limit_batch} of {device.name} (OOM)"
        )
    saturation = device.saturation_batch or 1
    effective = max(batch_size, saturation)
    return device.base_overhead + effective * per_sample


# --------------------------------------------------------------------------
# Reference profiles.  Throughputs are calibrated so that the *relative*
# performance gaps match the paper: V100 is roughly three times faster than
# P100; non-dedicated CPU workers are roughly four times slower on average
# than dedicated ones once contention is injected (contention is modelled
# separately in repro.sim.contention).
# --------------------------------------------------------------------------

CPU_WORKER_16C = DeviceProfile(
    name="cpu-16c",
    kind="cpu",
    samples_per_second=4096.0,
    base_overhead=0.05,
    memory_gb=32.0,
)

CPU_WORKER_8C = DeviceProfile(
    name="cpu-8c",
    kind="cpu",
    samples_per_second=2048.0,
    base_overhead=0.05,
    memory_gb=16.0,
)

CPU_SERVER_4C = DeviceProfile(
    name="cpu-server-4c",
    kind="cpu",
    samples_per_second=65536.0,
    base_overhead=0.01,
    memory_gb=24.0,
)

CPU_SERVER_12C = DeviceProfile(
    name="cpu-server-12c",
    kind="cpu",
    samples_per_second=131072.0,
    base_overhead=0.01,
    memory_gb=16.0,
)

GPU_V100 = DeviceProfile(
    name="V100",
    kind="gpu",
    samples_per_second=360.0,
    base_overhead=0.03,
    saturation_batch=64,
    memory_limit_batch=192,
    memory_gb=32.0,
)

GPU_P100 = DeviceProfile(
    name="P100",
    kind="gpu",
    samples_per_second=120.0,
    base_overhead=0.03,
    saturation_batch=32,
    memory_limit_batch=96,
    memory_gb=16.0,
)

#: Registry used by cluster/workload configuration files.
DEVICE_REGISTRY: Dict[str, DeviceProfile] = {
    profile.name: profile
    for profile in (
        CPU_WORKER_16C,
        CPU_WORKER_8C,
        CPU_SERVER_4C,
        CPU_SERVER_12C,
        GPU_V100,
        GPU_P100,
    )
}
