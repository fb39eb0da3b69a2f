"""Unit tests for device profiles, cost models and contention models."""

import numpy as np
import pytest

from repro.sim.contention import (
    CompositeContention,
    ConstantContention,
    DeterministicSlowdown,
    NoContention,
    PeriodicContention,
    RandomContention,
)
from repro.sim.hardware import (
    CPU_WORKER_16C,
    GPU_P100,
    GPU_V100,
    DeviceProfile,
    compute_time,
)


# --------------------------------------------------------------------------- hardware
def test_cpu_time_is_linear_in_batch_size():
    t1 = CPU_WORKER_16C.batch_time(1024)
    t2 = CPU_WORKER_16C.batch_time(2048)
    t4 = CPU_WORKER_16C.batch_time(4096)
    # Slope is constant: doubling the increment doubles the extra time.
    assert (t4 - t2) == pytest.approx(2 * (t2 - t1), rel=1e-6)


def test_cpu_zero_batch_costs_only_overhead():
    assert CPU_WORKER_16C.batch_time(0) == CPU_WORKER_16C.base_overhead


def test_gpu_flat_below_saturation_point():
    saturation = GPU_V100.saturation_batch
    t_small = GPU_V100.batch_time(saturation // 4)
    t_sat = GPU_V100.batch_time(saturation)
    assert t_small == pytest.approx(t_sat)


def test_gpu_grows_above_saturation_point():
    saturation = GPU_V100.saturation_batch
    assert GPU_V100.batch_time(saturation * 2) > GPU_V100.batch_time(saturation)


def test_gpu_oom_beyond_memory_limit():
    limit = GPU_P100.memory_limit_batch
    with pytest.raises(ValueError):
        GPU_P100.batch_time(limit + 1)


def test_v100_roughly_three_times_faster_than_p100():
    batch = GPU_P100.memory_limit_batch
    ratio = GPU_P100.throughput(batch) / GPU_V100.throughput(batch)
    assert 0.25 < ratio < 0.5


def test_negative_batch_rejected():
    with pytest.raises(ValueError):
        compute_time(CPU_WORKER_16C, -1)


def test_invalid_device_kind_rejected():
    with pytest.raises(ValueError):
        DeviceProfile(name="x", kind="tpu", samples_per_second=1.0)


def test_gpu_profile_requires_saturation_batch():
    with pytest.raises(ValueError):
        DeviceProfile(name="x", kind="gpu", samples_per_second=1.0)


def test_model_cost_scales_compute_time():
    light = CPU_WORKER_16C.batch_time(4096, model_cost=0.5)
    heavy = CPU_WORKER_16C.batch_time(4096, model_cost=2.0)
    assert heavy > light


# --------------------------------------------------------------------------- contention
def test_no_contention_is_neutral():
    rng = np.random.default_rng(0)
    model = NoContention()
    assert model.extra_delay(100.0, rng) == 0.0
    assert model.slowdown(100.0) == 1.0


def test_constant_contention_always_delays():
    rng = np.random.default_rng(0)
    model = ConstantContention(delay_seconds=4.0)
    assert model.extra_delay(0.0, rng) == 4.0
    assert model.extra_delay(1e6, rng) == 4.0


def test_constant_contention_rejects_negative_delay():
    with pytest.raises(ValueError):
        ConstantContention(delay_seconds=-1.0)


def test_periodic_contention_active_and_idle_windows():
    rng = np.random.default_rng(0)
    model = PeriodicContention(sleep_duration=1.5, intensity=0.8, period=100.0,
                               active_duration=40.0)
    assert model.extra_delay(10.0, rng) == pytest.approx(1.2)
    assert model.extra_delay(50.0, rng) == 0.0
    # The pattern repeats every period.
    assert model.extra_delay(110.0, rng) == pytest.approx(1.2)


def test_periodic_contention_phase_shifts_window():
    model = PeriodicContention(sleep_duration=1.0, intensity=1.0, period=100.0,
                               active_duration=10.0, phase=50.0)
    assert not model.is_active(0.0)
    assert model.is_active(55.0)


def test_periodic_contention_validates_intensity():
    with pytest.raises(ValueError):
        PeriodicContention(sleep_duration=1.0, intensity=1.5)


def test_random_contention_respects_probability_bounds():
    with pytest.raises(ValueError):
        RandomContention(probability=1.5)


def test_random_contention_zero_probability_never_delays():
    rng = np.random.default_rng(0)
    model = RandomContention(probability=0.0)
    assert all(model.extra_delay(t, rng) == 0.0 for t in range(10))


def test_deterministic_slowdown_multiplies():
    model = DeterministicSlowdown(factor=3.0)
    assert model.slowdown(0.0) == 3.0
    with pytest.raises(ValueError):
        DeterministicSlowdown(factor=0.5)


def test_composite_contention_combines_models():
    rng = np.random.default_rng(0)
    model = CompositeContention([
        ConstantContention(delay_seconds=1.0),
        ConstantContention(delay_seconds=2.0),
        DeterministicSlowdown(factor=2.0),
    ])
    assert model.extra_delay(0.0, rng) == pytest.approx(3.0)
    assert model.slowdown(0.0) == pytest.approx(2.0)
    assert "persistent" in model.describe()
