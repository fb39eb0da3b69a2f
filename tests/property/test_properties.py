"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sharding import StatefulDDS
from repro.core.solvers import solve_batch_sizes
from repro.core.detection import detect_stragglers
from repro.ml.losses import bce_with_logits, sigmoid
from repro.ml.metrics import auc
from repro.sim.engine import Environment
from repro.sim.hardware import CPU_WORKER_16C, GPU_P100, GPU_V100
from repro.sim.metrics import MetricSeries

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------------- DDS invariants
@_SETTINGS
@given(
    num_samples=st.integers(min_value=50, max_value=2000),
    shard_samples=st.integers(min_value=10, max_value=400),
    num_workers=st.integers(min_value=1, max_value=5),
    request=st.integers(min_value=1, max_value=300),
    data=st.data(),
)
def test_dds_every_sample_confirmed_exactly_once_without_failures(
        num_samples, shard_samples, num_workers, request, data):
    """Without drops or failovers the DDS delivers every sample exactly once."""
    dds = StatefulDDS(num_samples=num_samples, global_batch_size=10,
                      samples_per_shard=shard_samples, track_coverage=True)
    workers = [f"w{i}" for i in range(num_workers)]
    guard = 0
    while not dds.exhausted:
        guard += 1
        assert guard < 20 * num_samples, "allocator failed to make progress"
        worker = workers[data.draw(st.integers(0, num_workers - 1))]
        sample_range = dds.next_range(worker, request)
        if sample_range is None:
            continue
        dds.mark_done(worker, sample_range)
    coverage = dds.coverage()
    assert coverage.min() == 1 and coverage.max() == 1
    assert dds.done_shards == dds.total_shards
    assert sum(dds.consumed_counts().values()) == num_samples


@_SETTINGS
@given(
    num_samples=st.integers(min_value=100, max_value=1500),
    shard_samples=st.integers(min_value=20, max_value=300),
    failover_every=st.integers(min_value=3, max_value=12),
)
def test_dds_at_least_once_survives_random_failovers(num_samples, shard_samples, failover_every):
    """With failovers every sample is still confirmed at least once."""
    dds = StatefulDDS(num_samples=num_samples, global_batch_size=10,
                      samples_per_shard=shard_samples, track_coverage=True)
    step = 0
    guard = 0
    while not dds.exhausted:
        guard += 1
        assert guard < 50 * num_samples
        # Rotate through the workers every attempt: a worker whose request
        # returns None simply idles while the shard owner finishes its work.
        worker = f"w{guard % 3}"
        sample_range = dds.next_range(worker, 37)
        if sample_range is None:
            continue
        step += 1
        if step % failover_every == 0:
            # The worker dies before confirming: its in-flight work is requeued.
            dds.on_worker_failover(worker)
            continue
        dds.mark_done(worker, sample_range)
    coverage = dds.coverage()
    assert coverage.min() >= 1
    assert dds.done_shards == dds.total_shards


# ----------------------------------------------------------------------------- solver invariants
@_SETTINGS
@given(
    throughputs=st.lists(st.floats(min_value=1.0, max_value=5000.0), min_size=1, max_size=12),
    global_batch=st.integers(min_value=64, max_value=100_000),
)
def test_batch_size_solver_always_sums_to_global_batch(throughputs, global_batch):
    workers = {f"w{i}": v for i, v in enumerate(throughputs)}
    if len(workers) > global_batch:
        return
    sizes = solve_batch_sizes(workers, global_batch=global_batch, min_batch=1)
    assert sum(sizes.values()) == global_batch
    assert all(size >= 1 for size in sizes.values())


@_SETTINGS
@given(
    fast=st.floats(min_value=100.0, max_value=1000.0),
    slow=st.floats(min_value=1.0, max_value=99.0),
    global_batch=st.integers(min_value=100, max_value=10_000),
)
def test_batch_size_solver_gives_fast_worker_at_least_as_much(fast, slow, global_batch):
    sizes = solve_batch_sizes({"fast": fast, "slow": slow}, global_batch=global_batch)
    assert sizes["fast"] >= sizes["slow"]


# ----------------------------------------------------------------------------- detection
@_SETTINGS
@given(bpts=st.dictionaries(st.sampled_from([f"w{i}" for i in range(8)]),
                            st.floats(min_value=0.01, max_value=100.0), min_size=1),
       ratio=st.floats(min_value=1.1, max_value=3.0))
def test_detection_never_flags_faster_than_average_nodes(bpts, ratio):
    report = detect_stragglers(bpts, slowness_ratio=ratio)
    mean_bpt = sum(bpts.values()) / len(bpts)
    for node in report.stragglers:
        assert bpts[node] >= mean_bpt


# ----------------------------------------------------------------------------- ML invariants
@_SETTINGS
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=64))
def test_sigmoid_bounded(values):
    out = sigmoid(np.array(values))
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


@_SETTINGS
@given(
    n=st.integers(min_value=4, max_value=100),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_auc_is_bounded_and_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n).astype(float)
    if labels.sum() == 0 or labels.sum() == n:
        labels[0] = 1.0 - labels[0]
    scores = rng.random(n)
    value = auc(labels, scores)
    assert 0.0 <= value <= 1.0
    assert auc(labels, -scores) == pytest.approx(1.0 - value)


@_SETTINGS
@given(
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=500),
)
def test_bce_loss_is_non_negative(n, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=n) * 5
    labels = rng.integers(0, 2, size=n).astype(float)
    loss, grad = bce_with_logits(logits, labels)
    assert loss >= 0.0
    assert grad.shape == (n,)


# ----------------------------------------------------------------------------- engine/metrics
@_SETTINGS
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20))
def test_engine_fires_timeouts_in_order(delays):
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(delay)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(delays)
    assert env.now == pytest.approx(max(delays))


@_SETTINGS
@given(values=st.lists(st.floats(min_value=-1000, max_value=1000), min_size=1, max_size=50))
def test_metric_series_mean_matches_numpy(values):
    series = MetricSeries()
    for index, value in enumerate(values):
        series.append(float(index), value)
    assert series.mean() == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------------- hardware
@_SETTINGS
@given(batch=st.integers(min_value=1, max_value=8192))
def test_cpu_compute_time_monotone_in_batch(batch):
    assert CPU_WORKER_16C.batch_time(batch + 1) >= CPU_WORKER_16C.batch_time(batch)


@_SETTINGS
@given(batch=st.integers(min_value=1, max_value=96))
def test_gpu_devices_never_negative_and_v100_not_slower(batch):
    p100 = GPU_P100.batch_time(batch)
    v100 = GPU_V100.batch_time(batch)
    assert p100 > 0 and v100 > 0
    assert v100 <= p100
