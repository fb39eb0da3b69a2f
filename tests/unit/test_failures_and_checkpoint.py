"""Failure taxonomy, injector window semantics, and checkpoint failover.

Covers the previously untested paths of :mod:`repro.sim.failures` (the
retryable/unretryable error taxonomy, the random injector) including the t=0
boundary regression, and exercises the :mod:`repro.checkpoint` failover
machinery under the registered eviction-storm scenario.
"""

import math

import numpy as np
import pytest

from repro.checkpoint import CheckpointSchedule, CheckpointStore, FailoverModel
from repro.checkpoint.manager import periodic_checkpointer
from repro.core.monitor import Monitor
from repro.orchestrator import simulate_spec
from repro.scenarios import get_scenario
from repro.sim.engine import Environment
from repro.sim.failures import (
    RETRYABLE_ERRORS,
    ErrorCode,
    FailureInjector,
    NodeFailure,
    is_retryable,
)

# ---------------------------------------------------------------------------
# Taxonomy
# ---------------------------------------------------------------------------


def test_retryable_taxonomy_matches_paper():
    retryable = {ErrorCode.PROACTIVE_KILL, ErrorCode.NETWORK_ERROR,
                 ErrorCode.JOB_EVICTION, ErrorCode.MACHINE_FAILURE}
    unretryable = {ErrorCode.CONFIGURATION_ERROR, ErrorCode.PROGRAMMING_ERROR}
    assert RETRYABLE_ERRORS == frozenset(retryable)
    for code in retryable:
        assert is_retryable(code)
    for code in unretryable:
        assert not is_retryable(code)
    # The taxonomy is total: every code is classified one way or the other.
    assert retryable | unretryable == set(ErrorCode)


def test_node_failure_carries_retryability():
    eviction = NodeFailure(node_name="worker-0", code=ErrorCode.JOB_EVICTION, time=1.0)
    config = NodeFailure(node_name="worker-0", code=ErrorCode.CONFIGURATION_ERROR, time=2.0)
    assert eviction.retryable
    assert not config.retryable


# ---------------------------------------------------------------------------
# FailureInjector
# ---------------------------------------------------------------------------


def test_injector_disabled_without_mtbf():
    injector = FailureInjector(np.random.default_rng(0))
    assert not injector.enabled
    assert injector.next_failure_delay() == float("inf")


def test_injector_samples_delays_and_codes_from_pool():
    injector = FailureInjector(np.random.default_rng(0), mean_time_between_failures=100.0,
                               codes=[ErrorCode.JOB_EVICTION])
    assert injector.enabled
    delays = [injector.next_failure_delay() for _ in range(50)]
    assert all(delay > 0 for delay in delays)
    assert 20.0 < sum(delays) / len(delays) < 500.0  # exponential around the MTBF
    assert all(injector.sample_code() is ErrorCode.JOB_EVICTION for _ in range(10))


def test_injector_rejects_invalid_mtbf_and_negative_times():
    with pytest.raises(ValueError):
        FailureInjector(np.random.default_rng(0), mean_time_between_failures=0.0)
    injector = FailureInjector(np.random.default_rng(0))
    with pytest.raises(ValueError):
        injector.record("worker-0", ErrorCode.JOB_EVICTION, time=-1.0)


def test_injector_keeps_history_time_ordered():
    injector = FailureInjector(np.random.default_rng(0))
    injector.record("worker-1", ErrorCode.JOB_EVICTION, 10.0)
    injector.record("worker-2", ErrorCode.MACHINE_FAILURE, 5.0)
    injector.record("worker-3", ErrorCode.NETWORK_ERROR, 7.5)
    assert [event.time for event in injector.history] == [5.0, 7.5, 10.0]
    assert [event.node_name for event in injector.failures_for("worker-2")] == ["worker-2"]


def test_failure_at_t0_lands_in_first_window():
    """Regression: a failure injected at exactly t=0 must be attributed to the
    first monitoring window, consistent with the Monitor's documented
    half-open ``(start, now]`` semantics (first window widened to the run
    start)."""
    injector = FailureInjector(np.random.default_rng(0))
    boundary = injector.record("worker-0", ErrorCode.MACHINE_FAILURE, time=0.0)
    later = injector.record("worker-1", ErrorCode.JOB_EVICTION, time=8.0)

    first_window = injector.failures_in_window(window_s=10.0, now=10.0)
    assert boundary in first_window and later in first_window

    # The naive half-open interval would drop the boundary observation ...
    assert injector.failures_between(0.0, 10.0) == [later]
    # ... and consecutive later windows still partition without double counting.
    second_window = injector.failures_in_window(window_s=10.0, now=20.0)
    assert second_window == []
    assert injector.failures_between(10.0, 20.0) == []


def test_monitor_node_events_share_t0_window_semantics():
    monitor = Monitor()
    at_zero = NodeFailure(node_name="worker-0", code=ErrorCode.JOB_EVICTION, time=0.0)
    monitor.report_node_event(at_zero)
    assert monitor.node_events_between(window_s=10.0, now=10.0) == [at_zero]
    assert monitor.node_events_between(window_s=10.0, now=20.0) == []
    assert monitor._window_start(10.0, 5.0) == -math.inf
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


def test_checkpoint_store_and_periodic_saves_under_storm():
    """Drive the periodic checkpointer through the eviction-storm timeline and
    check the store/schedule agree on what a failover would roll back to."""
    spec = get_scenario("eviction-storm")
    storm_times = [event.time_s for event in spec.failures.events]
    env = Environment()
    store = CheckpointStore(save_cost_s=2.0, restore_cost_s=4.0, keep_last=3)
    steps = {"count": 0}

    def state_provider():
        steps["count"] += 1
        return steps["count"], {"w": steps["count"]}, {}, {"cursor": steps["count"]}

    env.process(periodic_checkpointer(env, store, interval_s=20.0,
                                      state_provider=state_provider,
                                      stop_predicate=lambda: env.now > 130.0))
    env.run(until=200.0)

    assert len(store) == 3  # keep_last bounds retention
    assert store.total_save_time_s == pytest.approx(2.0 * steps["count"])
    latest = store.latest()
    assert latest is not None and latest.step == steps["count"]

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


def test_checkpoint_restore_state_is_deep_copied():
    store = CheckpointStore(save_cost_s=1.0, restore_cost_s=2.0)
    state = {"weights": [1.0, 2.0]}
    checkpoint = store.save(step=1, time=0.0, model_state=state)
    state["weights"].append(3.0)
    assert checkpoint.model_state == {"weights": [1.0, 2.0]}
    assert store.latest_before(0.0) is checkpoint
    assert store.latest_before(-1.0) is None
