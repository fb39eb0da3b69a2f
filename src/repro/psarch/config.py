"""Configuration of simulated Parameter Server training jobs."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import ConsistencyModel
from ..ml.models.cost_models import ModelCostProfile, XDEEPFM_CRITEO

__all__ = ["PSJobConfig"]


@dataclass
class PSJobConfig:
    """Knobs of one Parameter Server training job.

    Attributes
    ----------
    consistency:
        BSP or ASP.
    global_batch_size:
        The fixed global batch ``B``; per-worker batch sizes always sum to it.
    model:
        Cost profile of the model being trained (parameter count drives the
        communication volume, ``compute_cost`` scales worker compute time).
    backup_workers:
        ``b``: number of slowest gradients dropped per BSP iteration
        (the Backup Workers / Sync-OPT mechanism).  0 disables it.
    server_per_byte_cost_s:
        Seconds a server needs per byte of pushed gradient (IO-bound cost).
    worker_recovery_time_s:
        Extra time a relaunched worker needs to rebuild the communication
        world and reload the computation graph (on top of scheduling delays).
    server_recovery_time_s:
        Extra time a relaunched server needs to restore its parameter shard
        from the replica/checkpoint.
    data_poll_interval_s:
        How long an idle worker waits before re-asking the DDS for work.
    max_duration_s:
        Hard simulation-time limit (safety net against pathological runs).
    """

    consistency: ConsistencyModel = ConsistencyModel.BSP
    global_batch_size: int = 4096
    model: ModelCostProfile = field(default_factory=lambda: XDEEPFM_CRITEO)
    backup_workers: int = 0
    server_per_byte_cost_s: float = 1e-9
    worker_recovery_time_s: float = 60.0
    server_recovery_time_s: float = 120.0
    data_poll_interval_s: float = 1.0
    max_duration_s: float = 2_000_000.0

    def __post_init__(self) -> None:
        if self.global_batch_size <= 0:
            raise ValueError("global_batch_size must be positive")
        if self.backup_workers < 0:
            raise ValueError("backup_workers must be non-negative")
        if self.server_per_byte_cost_s < 0:
            raise ValueError("server_per_byte_cost_s must be non-negative")
        if self.worker_recovery_time_s < 0 or self.server_recovery_time_s < 0:
            raise ValueError("recovery times must be non-negative")
        if self.data_poll_interval_s <= 0:
            raise ValueError("data_poll_interval_s must be positive")
        if self.max_duration_s <= 0:
            raise ValueError("max_duration_s must be positive")
