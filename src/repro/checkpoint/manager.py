"""Failover recovery: checkpoint-based vs DDS-based worker KILL_RESTART.

The paper's Fig. 17 compares the *time delay* of a worker failover under two
recovery protocols:

* **Checkpoint-based** (mainstream libraries): training state is saved every
  ``save_interval`` seconds; on a worker failure the whole job rolls back to
  the last checkpoint and every worker recomputes the data it processed since
  then.  The expected delay therefore grows with the save interval (on
  average half an interval of lost work plus restore costs), and frequent
  saving is itself expensive.
* **DDS-based** (AntDT): the latest parameters still live on the servers, so
  only the crashed worker's in-flight shard needs recomputing; the delay is a
  small constant regardless of any checkpoint schedule.

:class:`FailoverModel` provides both estimates analytically (they are closed
form given the workload's throughput) and is cross-checked against the
simulation in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["FailoverModel", "CheckpointSchedule"]


@dataclass
class CheckpointSchedule:
    """Periodic checkpointing policy."""

    save_interval_s: float
    save_cost_s: float = 30.0
    restore_cost_s: float = 60.0

    def __post_init__(self) -> None:
        if self.save_interval_s <= 0:
            raise ValueError("save_interval_s must be positive")
        if self.save_cost_s < 0 or self.restore_cost_s < 0:
            raise ValueError("checkpoint costs must be non-negative")

    def last_checkpoint_before(self, failure_time: float) -> float:
        """Time of the most recent checkpoint taken at or before ``failure_time``."""
        if failure_time < 0:
            raise ValueError("failure_time must be non-negative")
        return (failure_time // self.save_interval_s) * self.save_interval_s

    def expected_lost_work_s(self) -> float:
        """Expected training time lost to a uniformly random failure instant."""
        return self.save_interval_s / 2.0


@dataclass
class FailoverModel:
    """Closed-form failover delay for the two recovery protocols.

    Parameters
    ----------
    shard_processing_time_s:
        Time one worker needs to reprocess its in-flight DDS shard (the only
        recomputation the DDS-based protocol performs).
    dds_sync_time_s:
        Time to synchronise shard states with the DDS after the relaunch.
    recompute_factor:
        How much faster recomputation is than the original pass (1.0 = same
        speed; values below 1.0 model caching effects).
    """

    shard_processing_time_s: float = 60.0
    dds_sync_time_s: float = 5.0
    recompute_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.shard_processing_time_s < 0 or self.dds_sync_time_s < 0:
            raise ValueError("times must be non-negative")
        if self.recompute_factor <= 0:
            raise ValueError("recompute_factor must be positive")

    def checkpoint_based_delay(self, schedule: CheckpointSchedule,
                               failure_time: Optional[float] = None) -> float:
        """Failover delay (seconds) of the checkpoint-based protocol.

        If ``failure_time`` is given, the delay uses the actual distance to the
        preceding checkpoint; otherwise the expectation (half the interval).
        """
        if failure_time is None:
            lost = schedule.expected_lost_work_s()
        else:
            lost = failure_time - schedule.last_checkpoint_before(failure_time)
        recompute = lost * self.recompute_factor
        return schedule.restore_cost_s + schedule.save_cost_s + recompute

    def dds_based_delay(self) -> float:
        """Failover delay (seconds) of the DDS-based protocol."""
        return self.dds_sync_time_s + self.shard_processing_time_s * self.recompute_factor

    def sweep_checkpoint_intervals(self, intervals_s: List[float],
                                   save_cost_s: float = 30.0,
                                   restore_cost_s: float = 60.0) -> Dict[float, Dict[str, float]]:
        """Reproduce the Fig. 17 sweep: delay of both protocols per interval."""
        results: Dict[float, Dict[str, float]] = {}
        for interval in intervals_s:
            schedule = CheckpointSchedule(save_interval_s=interval, save_cost_s=save_cost_s,
                                          restore_cost_s=restore_cost_s)
            results[interval] = {
                "checkpoint_based_s": self.checkpoint_based_delay(schedule),
                "dds_based_s": self.dds_based_delay(),
            }
        return results

