"""Unit tests for network, metrics, failures, cluster and scheduler."""

import math

import pytest

from repro.sim.cluster import Cluster, Node, NodeRole, NodeSpec, NodeStatus
from repro.sim.contention import ConstantContention, NoContention
from repro.sim.engine import Environment
from repro.sim.failures import ErrorCode, FailureInjector
from repro.sim.hardware import CPU_SERVER_4C, CPU_WORKER_16C
from repro.sim.metrics import MetricSeries, MetricsRecorder, SeriesStore
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


def test_per_tag_window_means_queries_a_shared_row_once(monkeypatch):
    # Servers in lock step attach one row of their store under every tag.
    store = SeriesStore(rows=2)
    shared, own = store.add_row(), store.add_row()
    recorder = MetricsRecorder()
    for tag in ("s0", "s1", "s2"):
        recorder.attach("server_bpt", tag, MetricSeries(store, shared))
    recorder.attach("server_bpt", "s3", MetricSeries(store, own))
    MetricSeries(store, shared).append(1.0, 2.0)
    MetricSeries(store, own).append(1.5, 4.0)
    queries = []
    window_mean = MetricSeries.window_mean
    monkeypatch.setattr(MetricSeries, "window_mean", lambda series, start, end: (
        queries.append(series._row) or window_mean(series, start, end)))
    means = recorder.per_tag_window_means("server_bpt", 0.0, 5.0)
    assert means == {"s0": 2.0, "s1": 2.0, "s2": 2.0, "s3": 4.0}
    assert sorted(queries) == [shared, own]


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
def test_failure_injector_records_history():
    injector = FailureInjector()
    failure = injector.record("worker-0", ErrorCode.JOB_EVICTION, 10.0)
    assert (failure.node_name, failure.code, failure.time) == (
        "worker-0", ErrorCode.JOB_EVICTION, 10.0)
    assert injector.history == [failure]


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


def test_metric_series_truncate_keeps_prefix_sums_exact():
    # A coalesced-window rollback cuts a server's series after its prefix
    # sums synced; aggregates must then equal a fresh left-to-right sum.
    def left_to_right(values):
        total = 0.0
        for value in values:
            total += value
        return total

    def assert_exact(series, values):
        expected = left_to_right(values)
        assert len(series) == len(values)
        assert series.total() == expected
        assert series.window_stats(-math.inf, math.inf) == (len(values), expected)

    values = [0.1 * (index % 7) + index / 3.0 for index in range(100)]
    series = MetricSeries()
    for index, value in enumerate(values):
        series.append(float(index), value)
    # 100 unsynced values: above the cumsum threshold of the lazy sync.
    assert series.window_stats(-math.inf, math.inf)[0] == 100
    series.truncate(40)
    assert_exact(series, values[:40])
    tail = [0.7 / (index + 1) for index in range(30)]
    for index, value in enumerate(tail):
        series.append(40.0 + index, value)
    assert_exact(series, values[:40] + tail)
    with pytest.raises(ValueError):
        series.truncate(71)
    with pytest.raises(ValueError):
        series.truncate(-1)

    # A series that is one row of a shared store (the server tier keeps its
    # server_bpt series so) answers exactly as a standalone one, also once
    # the store has grown its rows and its capacity.
    store = SeriesStore(rows=1, capacity=8)
    shared = [MetricSeries(store, store.add_row()) for _ in range(3)]
    alone = [MetricSeries() for _ in range(3)]

    def assert_same():
        windows = [(-math.inf, math.inf), (3.0, 40.0), (10.5, 10.5), (12.0, 90.0),
                   (95.0, 200.0), (40.0, 3.0)]
        for row, reference in zip(shared, alone):
            assert len(row) == len(reference)
            assert row.times() == reference.times()
            assert row.values() == reference.values()
            assert row.total() == reference.total()
            assert row.mean() == reference.mean()
            for start, end in windows:
                assert row.window(start, end) == reference.window(start, end)
                assert row.window_stats(start, end) == reference.window_stats(start, end)

    assert_same()
    for index in range(100):
        for offset, (row, reference) in enumerate(zip(shared, alone)):
            value = 0.1 * (index % 7) + index / (3.0 + offset)
            row.append(float(index), value)
            reference.append(float(index), value)
        if index == 30:
            assert_same()  # syncs the prefix sums part-way
    assert store.capacity >= 100
    assert_same()
    for series in (shared[1], alone[1]):
        series.truncate(40)
        for index in range(200):
            series.append(40.0 + index / 4.0, 0.7 / (index + 1))
    assert store.capacity >= 240
    assert_same()
    # Fresh series share one empty store until their first append: the
    # appends above left it empty.
    fresh = MetricSeries()
    assert (len(fresh), fresh.times(), fresh.total(), fresh.mean()) == (0, [], 0.0, None)
    assert fresh.window_stats(-math.inf, math.inf) == (0, 0.0)


def test_metrics_recorder_tags_index_tracks_first_seen():
    recorder = MetricsRecorder()
    recorder.record("metric", 1.0, 0.0, tag="b")
    recorder.record("metric", 1.0, 0.5, tag="a")
    recorder.record("other", 1.0, 0.5, tag="z")
    assert recorder.tags("metric") == ["a", "b"]
    assert recorder.tags("other") == ["z"]
    assert recorder.tags("absent") == []
