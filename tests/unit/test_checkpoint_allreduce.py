"""Unit tests for the checkpoint/failover models and the AllReduce architecture."""

import numpy as np
import pytest

from repro.checkpoint import CheckpointSchedule, FailoverModel
from repro.allreduce import (
    AllReduceJob,
    GPUWorkerGroup,
    antdt_dd_assignment,
    even_assignment,
    lb_bsp_assignment,
)
from repro.allreduce.strategies import DeviceAssignment
from repro.ml.data.imagenet import mini_imagenet_epoch
from repro.ml.models.cost_models import MOBILENET_V1, RESNET101
from repro.sim.hardware import GPU_P100, GPU_V100


# ------------------------------------------------------------------------------ checkpoints
def test_checkpoint_schedule_positions():
    schedule = CheckpointSchedule(save_interval_s=600.0)
    assert schedule.last_checkpoint_before(1500.0) == 1200.0
    assert schedule.expected_lost_work_s() == 300.0
    with pytest.raises(ValueError):
        CheckpointSchedule(save_interval_s=0.0)


def test_failover_model_dds_delay_is_constant_in_interval():
    model = FailoverModel(shard_processing_time_s=120.0, dds_sync_time_s=5.0)
    sweep = model.sweep_checkpoint_intervals([300.0, 3600.0])
    assert sweep[300.0]["dds_based_s"] == sweep[3600.0]["dds_based_s"]
    assert sweep[3600.0]["checkpoint_based_s"] > sweep[300.0]["checkpoint_based_s"]


def test_failover_model_checkpoint_delay_grows_with_interval():
    model = FailoverModel()
    short = model.checkpoint_based_delay(CheckpointSchedule(save_interval_s=300.0))
    long = model.checkpoint_based_delay(CheckpointSchedule(save_interval_s=3600.0))
    assert long > short


def test_failover_model_uses_actual_failure_time_when_given():
    model = FailoverModel(recompute_factor=1.0)
    schedule = CheckpointSchedule(save_interval_s=600.0, save_cost_s=0.0, restore_cost_s=0.0)
    assert model.checkpoint_based_delay(schedule, failure_time=650.0) == pytest.approx(50.0)


# ------------------------------------------------------------------------------ allreduce
def _groups():
    return [
        GPUWorkerGroup(name="V100", device=GPU_V100, count=4),
        GPUWorkerGroup(name="P100", device=GPU_P100, count=4),
    ]


def test_even_assignment_splits_batch_uniformly():
    assignments = even_assignment(_groups(), 768)
    assert all(a.batch_size == 96 for a in assignments)


def test_even_assignment_detects_oom():
    groups = [GPUWorkerGroup(name="P100", device=GPU_P100, count=2)]
    with pytest.raises(ValueError):
        even_assignment(groups, 1024)


def test_lb_bsp_assignment_is_throughput_proportional():
    assignments = {a.group: a for a in lb_bsp_assignment(_groups(), 768)}
    assert assignments["V100"].batch_size > assignments["P100"].batch_size
    total = 4 * assignments["V100"].batch_size + 4 * assignments["P100"].batch_size
    assert total == 768


def test_antdt_dd_assignment_saturates_devices_and_grows_effective_batch():
    groups = _groups()
    assignments = {a.group: a for a in antdt_dd_assignment(groups, 768)}
    for group in groups:
        assignment = assignments[group.name]
        assert assignment.batch_size >= group.device.saturation_batch
        assert assignment.batch_size <= group.device.memory_limit_batch
    effective = sum(group.count * assignments[group.name].samples_per_sync for group in groups)
    assert effective >= 768


def test_device_assignment_validation():
    with pytest.raises(ValueError):
        DeviceAssignment(group="g", batch_size=0)
    with pytest.raises(ValueError):
        DeviceAssignment(group="g", batch_size=1, accumulation=0)


def test_allreduce_job_orders_strategies_as_in_paper():
    job = AllReduceJob(_groups(), RESNET101, mini_imagenet_epoch(50_000), global_batch_size=768)
    ddp = job.run(even_assignment(_groups(), 768), strategy="ddp")
    lb = job.run(lb_bsp_assignment(_groups(), 768), strategy="lb-bsp")
    dd = job.run(antdt_dd_assignment(_groups(), 768), strategy="antdt-dd")
    assert dd.jct < lb.jct < ddp.jct


def test_allreduce_result_idle_accounting():
    job = AllReduceJob(_groups(), MOBILENET_V1, mini_imagenet_epoch(10_000),
                       global_batch_size=768)
    result = job.run(even_assignment(_groups(), 768), strategy="ddp")
    # With even batches the V100 idles while waiting for the P100.
    assert result.per_group_idle_s["V100"] > 0
    assert result.per_group_idle_s["P100"] == pytest.approx(0.0)
    assert 0.0 <= result.idle_fraction("V100") < 1.0


def test_allreduce_job_rejects_oversized_assignment():
    job = AllReduceJob(_groups(), RESNET101, mini_imagenet_epoch(1_000), global_batch_size=768)
    too_big = [DeviceAssignment(group="V100", batch_size=500),
               DeviceAssignment(group="P100", batch_size=500)]
    with pytest.raises(ValueError):
        job.run(too_big)


def test_allreduce_job_requires_assignment_for_every_group():
    job = AllReduceJob(_groups(), RESNET101, mini_imagenet_epoch(1_000), global_batch_size=768)
    with pytest.raises(ValueError):
        job.run([DeviceAssignment(group="V100", batch_size=64)])


def test_gpu_worker_group_requires_gpu_profile():
    from repro.sim.hardware import CPU_WORKER_16C

    with pytest.raises(ValueError):
        GPUWorkerGroup(name="cpu", device=CPU_WORKER_16C, count=1)
