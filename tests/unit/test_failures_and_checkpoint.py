"""The failure history, window semantics, and checkpoint failover.

Covers :mod:`repro.sim.failures` (the time-ordered failure history), the
Monitor's first-window widening, and exercises the :mod:`repro.checkpoint`
failover models under the registered eviction-storm scenario.
"""

import math

import pytest

from repro.checkpoint import CheckpointSchedule, FailoverModel
from repro.core.monitor import Monitor
from repro.orchestrator import simulate_spec
from repro.scenarios import get_scenario
from repro.sim.failures import ErrorCode, FailureInjector


# ---------------------------------------------------------------------------
# FailureInjector
# ---------------------------------------------------------------------------


def test_injector_rejects_negative_times():
    injector = FailureInjector()
    with pytest.raises(ValueError):
        injector.record("worker-0", ErrorCode.JOB_EVICTION, time=-1.0)


def test_injector_keeps_history_time_ordered():
    injector = FailureInjector()
    injector.record("worker-1", ErrorCode.JOB_EVICTION, 10.0)
    injector.record("worker-2", ErrorCode.MACHINE_FAILURE, 5.0)
    injector.record("worker-3", ErrorCode.NETWORK_ERROR, 7.5)
    assert [event.time for event in injector.history] == [5.0, 7.5, 10.0]
    assert [event.node_name for event in injector.history] == [
        "worker-2", "worker-3", "worker-1"]


def test_monitor_window_start_widens_only_the_first_window():
    monitor = Monitor()
    assert monitor._window_start(10.0, 5.0) == -math.inf
    assert monitor._window_start(10.0, 10.0) == -math.inf
    assert monitor._window_start(10.0, 25.0) == 15.0


# ---------------------------------------------------------------------------
# Checkpoint failover under the eviction-storm scenario
# ---------------------------------------------------------------------------


def test_eviction_storm_recovers_every_shard():
    result = simulate_spec(get_scenario("eviction-storm"))
    run = result.run
    assert run.completed
    # All four scheduled failures were injected and recorded with their codes.
    codes = [event["code"] for event in result.fingerprint["failures"]]
    assert codes.count("job_eviction") == 3
    assert codes.count("machine_failure") == 1
    # Every evicted worker was relaunched and the DDS requeued its shards:
    # at-least-once semantics mean no sample is lost.
    assert sum(run.restarts_per_node.values()) >= 4
    assert run.samples_confirmed == run.total_samples
    assert run.done_shards == run.total_shards


def test_checkpoint_schedule_and_failover_model_under_storm():
    """Check the schedule and failover model against the eviction-storm
    timeline: what a checkpoint-based failover rolls back to, and that it is
    slower than the DDS-based one."""
    spec = get_scenario("eviction-storm")
    storm_times = [event.time_s for event in spec.failures.events]

    # A checkpoint-based failover at each storm instant rolls back to the
    # last save at or before the failure...
    schedule = CheckpointSchedule(save_interval_s=20.0, save_cost_s=2.0, restore_cost_s=4.0)
    for failure_time in storm_times:
        last = schedule.last_checkpoint_before(failure_time)
        assert last <= failure_time < last + schedule.save_interval_s

    # ...and is strictly slower than the DDS-based protocol for every storm
    # failure (the Fig. 17 claim the scenario exercises).
    model = FailoverModel(shard_processing_time_s=3.0, dds_sync_time_s=1.0)
    for failure_time in storm_times:
        checkpoint_delay = model.checkpoint_based_delay(schedule, failure_time=failure_time)
        if failure_time % schedule.save_interval_s == 0:
            continue  # a failure exactly at a save instant loses no work
        assert model.dds_based_delay() < checkpoint_delay

