"""Checkpointing and failover-recovery models."""

from .manager import CheckpointSchedule, FailoverModel

__all__ = [
    "CheckpointSchedule",
    "FailoverModel",
]
