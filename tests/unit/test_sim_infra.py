"""Unit tests for network, metrics, failures, cluster and scheduler."""

import numpy as np
import pytest

from repro.sim.cluster import Cluster, Node, NodeRole, NodeSpec, NodeStatus
from repro.sim.contention import ConstantContention, NoContention
from repro.sim.engine import Environment
from repro.sim.failures import ErrorCode, FailureInjector, NodeFailure, is_retryable
from repro.sim.hardware import CPU_SERVER_4C, CPU_WORKER_16C
from repro.sim.metrics import MetricSeries, MetricsRecorder
from repro.sim.network import NetworkModel, parameter_bytes, ring_allreduce_time
from repro.sim.scheduler import BusyPeriod, ClusterScheduler, PendingTimeModel


# ----------------------------------------------------------------------------- network
def test_transfer_time_includes_latency_and_bandwidth():
    net = NetworkModel(latency_s=0.01, bandwidth_gbps=8.0)
    nbytes = 1e9  # 1 GB over 1 GB/s usable bandwidth
    assert net.transfer_time(nbytes) == pytest.approx(0.01 + 1.0)


def test_transfer_time_slowed_by_contention():
    net = NetworkModel(latency_s=0.0, bandwidth_gbps=8.0)
    slow = net.transfer_time(1e9, contention=ConstantContention(0.0), now=0.0)
    assert slow == pytest.approx(1.0)


def test_ring_allreduce_single_worker_is_free():
    assert ring_allreduce_time(10**6, 1, NetworkModel()) == 0.0


def test_ring_allreduce_grows_with_parameters():
    net = NetworkModel()
    assert ring_allreduce_time(10**8, 8, net) > ring_allreduce_time(10**6, 8, net)


def test_parameter_bytes():
    assert parameter_bytes(1000) == 4000.0
    with pytest.raises(ValueError):
        parameter_bytes(-1)


# ----------------------------------------------------------------------------- metrics
def test_metric_series_window_queries():
    series = MetricSeries()
    for t in range(10):
        series.append(float(t), float(t))
    assert series.window(2.0, 5.0) == [3.0, 4.0, 5.0]
    assert series.window_mean(2.0, 5.0) == pytest.approx(4.0)
    assert series.window_mean(100.0, 200.0) is None


def test_metric_series_rejects_out_of_order_times():
    series = MetricSeries()
    series.append(5.0, 1.0)
    with pytest.raises(ValueError):
        series.append(4.0, 1.0)


def test_metrics_recorder_per_tag_window_means():
    recorder = MetricsRecorder()
    recorder.record("bpt", 1.0, 1.0, tag="w0")
    recorder.record("bpt", 3.0, 2.0, tag="w0")
    recorder.record("bpt", 10.0, 2.0, tag="w1")
    means = recorder.per_tag_window_means("bpt", 0.0, 5.0)
    assert means == {"w0": 2.0, "w1": 10.0}


def test_metrics_recorder_counters_and_events():
    recorder = MetricsRecorder()
    recorder.log_event(1.0, "kill", "w0", "test")
    assert recorder.events(kind="kill", tag="w0") == [(1.0, "kill", "w0", "test")]


def test_metrics_recorder_summary():
    recorder = MetricsRecorder()
    recorder.record("x", 2.0, 0.0, tag="a")
    recorder.record("x", 4.0, 1.0, tag="a")
    assert recorder.summary("x") == {"a": 3.0}


# ----------------------------------------------------------------------------- failures
def test_error_code_retryability():
    assert is_retryable(ErrorCode.NETWORK_ERROR)
    assert is_retryable(ErrorCode.PROACTIVE_KILL)
    assert not is_retryable(ErrorCode.CONFIGURATION_ERROR)
    assert not is_retryable(ErrorCode.PROGRAMMING_ERROR)


def test_failure_injector_disabled_by_default():
    injector = FailureInjector(np.random.default_rng(0))
    assert not injector.enabled
    assert injector.next_failure_delay() == float("inf")


def test_failure_injector_records_history():
    injector = FailureInjector(np.random.default_rng(0), mean_time_between_failures=100.0)
    failure = injector.record("worker-0", ErrorCode.JOB_EVICTION, 10.0)
    assert failure.retryable
    assert injector.failures_for("worker-0") == [failure]
    assert injector.failures_for("worker-1") == []


def test_failure_injector_samples_codes_from_pool():
    injector = FailureInjector(np.random.default_rng(0), mean_time_between_failures=1.0)
    for _ in range(20):
        assert is_retryable(injector.sample_code())


# ----------------------------------------------------------------------------- cluster
def _make_cluster():
    specs = [
        NodeSpec(name="worker-0", role=NodeRole.WORKER, device=CPU_WORKER_16C),
        NodeSpec(name="worker-1", role=NodeRole.WORKER, device=CPU_WORKER_16C,
                 contention=ConstantContention(2.0)),
        NodeSpec(name="server-0", role=NodeRole.SERVER, device=CPU_SERVER_4C),
    ]
    return Cluster("test", specs, dedicated=False, seed=1)


def test_cluster_partitions_workers_and_servers():
    cluster = _make_cluster()
    assert cluster.num_workers == 2
    assert cluster.num_servers == 1
    assert "worker-0" in cluster
    assert cluster.get("server-0").role is NodeRole.SERVER


def test_cluster_rejects_duplicate_names():
    spec = NodeSpec(name="dup", role=NodeRole.WORKER, device=CPU_WORKER_16C)
    with pytest.raises(ValueError):
        Cluster("bad", [spec, spec])


def test_cluster_unknown_node_lookup():
    cluster = _make_cluster()
    with pytest.raises(KeyError):
        cluster.get("missing")


def test_node_compute_time_includes_contention_delay():
    cluster = _make_cluster()
    clean = cluster.get("worker-0").compute_time(4096, now=0.0)
    contended = cluster.get("worker-1").compute_time(4096, now=0.0)
    assert contended == pytest.approx(clean + 2.0)


def test_node_restart_clears_contention():
    cluster = _make_cluster()
    node = cluster.get("worker-1")
    node.mark_restarting()
    assert not node.is_running
    node.complete_restart()
    assert node.is_running
    assert node.restart_count == 1
    assert node.compute_time(4096, now=0.0) == pytest.approx(
        cluster.get("worker-0").compute_time(4096, now=0.0))


def test_node_server_time_delay_fraction():
    cluster = _make_cluster()
    node = cluster.get("worker-1")
    full = node.server_time(1e6, now=0.0, delay_fraction=1.0)
    amortised = node.server_time(1e6, now=0.0, delay_fraction=0.1)
    assert full > amortised
    with pytest.raises(ValueError):
        node.server_time(1e6, now=0.0, delay_fraction=2.0)


def test_cluster_describe_mentions_every_node():
    cluster = _make_cluster()
    description = cluster.describe()
    for node in cluster.nodes:
        assert node.name in description


# ----------------------------------------------------------------------------- scheduler
def test_pending_time_model_busy_periods():
    model = PendingTimeModel(idle_pending_time=10.0,
                             busy_periods=(BusyPeriod(100.0, 200.0, 900.0),),
                             busy_threshold=300.0)
    assert model.pending_time(50.0) == 10.0
    assert model.pending_time(150.0) == 900.0
    assert model.is_busy(150.0)
    assert not model.is_busy(50.0)


def test_busy_period_validation():
    with pytest.raises(ValueError):
        BusyPeriod(10.0, 5.0, 100.0)


def test_scheduler_relaunch_takes_pending_plus_init_time():
    env = Environment()
    cluster = _make_cluster()
    scheduler = ClusterScheduler(env, cluster,
                                 pending_model=PendingTimeModel(idle_pending_time=5.0),
                                 node_init_time=20.0)
    node = cluster.get("worker-1")
    durations = []

    def proc(env):
        delay = yield from scheduler.relaunch(node)
        durations.append(delay)

    env.process(proc(env))
    env.run()
    assert durations == [pytest.approx(25.0)]
    assert node.restart_count == 1
    assert scheduler.restarts_of("worker-1") == 1


def test_scheduler_restart_delay_estimate():
    env = Environment()
    cluster = _make_cluster()
    scheduler = ClusterScheduler(env, cluster,
                                 pending_model=PendingTimeModel(idle_pending_time=7.0),
                                 node_init_time=3.0)
    assert scheduler.restart_delay() == pytest.approx(10.0)


def test_metric_series_window_stats_matches_window():
    series = MetricSeries()
    for t, v in [(0.0, 1.0), (1.0, 2.0), (2.5, 4.0), (4.0, 8.0)]:
        series.append(t, v)
    for start, end in [(-1.0, 5.0), (0.0, 2.5), (1.0, 4.0), (2.5, 2.5), (5.0, 9.0)]:
        values = series.window(start, end)
        count, total = series.window_stats(start, end)
        assert count == len(values)
        assert total == pytest.approx(sum(values))


def test_metric_series_window_is_open_at_start():
    # (start, end] semantics: an observation exactly at the window start
    # belongs to the previous window.
    series = MetricSeries()
    series.append(0.0, 5.0)
    series.append(10.0, 7.0)
    assert series.window(0.0, 10.0) == [7.0]
    assert series.window(-1.0, 10.0) == [5.0, 7.0]
    assert series.window_mean(0.0, 10.0) == 7.0


def test_metric_series_prefix_aggregates():
    series = MetricSeries()
    values = [3.0, 1.5, 2.5, 9.0]
    for index, value in enumerate(values):
        series.append(float(index), value)
    assert series.total() == pytest.approx(sum(values))
    assert series.mean() == pytest.approx(sum(values) / len(values))


def test_metrics_recorder_tags_index_tracks_first_seen():
    recorder = MetricsRecorder()
    recorder.record("metric", 1.0, 0.0, tag="b")
    recorder.record("metric", 1.0, 0.5, tag="a")
    recorder.record("other", 1.0, 0.5, tag="z")
    assert recorder.tags("metric") == ["a", "b"]
    assert recorder.tags("other") == ["z"]
    assert recorder.tags("absent") == []
