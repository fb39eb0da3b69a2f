"""Unit tests for configuration objects, the method registry and experiment helpers."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
from repro.baselines import PS_METHODS, asp_methods, bsp_methods, get_method
from repro.core.config import AntDTConfig, ConsistencyModel
from repro.experiments import (
    LARGE,
    MEDIUM,
    NO_STRAGGLERS,
    SMALL,
    StragglerScenario,
    antdt_config,
    apply_scenario,
    apply_trace_pattern,
    format_table,
    make_cpu_cluster,
    make_gpu_groups,
    pending_model,
    percent_faster,
    ps_job_config,
    server_scenario,
    speedup,
    worker_scenario,
)
from repro.experiments.workloads import ExperimentScale
from repro.psarch.config import PSJobConfig
from repro.sim.contention import ConstantContention, NoContention


# ----------------------------------------------------------------------------- AntDTConfig
def test_antdt_config_defaults_match_paper():
    config = AntDTConfig()
    assert config.batches_per_shard == 100
    assert config.slowness_ratio == 1.5
    assert config.transient_window_s == 300.0
    assert config.persistent_window_s == 600.0
    assert config.report_interval_iters == 10
    assert config.control_interval_s == 300.0


def test_antdt_config_validation():
    with pytest.raises(ValueError):
        AntDTConfig(slowness_ratio=1.0)
    with pytest.raises(ValueError):
        AntDTConfig(transient_window_s=600.0, persistent_window_s=300.0)
    with pytest.raises(ValueError):
        AntDTConfig(batches_per_shard=0)


def test_ps_job_config_validation():
    with pytest.raises(ValueError):
        PSJobConfig(global_batch_size=0)
    with pytest.raises(ValueError):
        PSJobConfig(backup_workers=-1)
    config = PSJobConfig(consistency=ConsistencyModel.ASP, global_batch_size=128)
    assert config.consistency is ConsistencyModel.ASP


def test_every_config_field_has_a_reader():
    """A config field that no code reads can be set and silently changes nothing.

    Scans every module under ``src/repro`` for attribute loads; loads inside
    the body of the class that defines the field (its own validation) do not
    count as readers.
    """
    modules = [(path.resolve(), ast.parse(path.read_text(encoding="utf-8")))
               for path in sorted(Path(repro.__file__).parent.rglob("*.py"))]

    def attributes_read_outside(config_class):
        home = Path(inspect.getsourcefile(config_class)).resolve()
        names = set()
        for path, tree in modules:
            stack = [tree]
            while stack:
                node = stack.pop()
                if (path == home and isinstance(node, ast.ClassDef)
                        and node.name == config_class.__name__):
                    continue
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                stack.extend(ast.iter_child_nodes(node))
        return names

    unread = []
    for config_class in (AntDTConfig, PSJobConfig, ExperimentScale):
        read = attributes_read_outside(config_class)
        unread.extend(f"{config_class.__name__}.{field.name}"
                      for field in dataclasses.fields(config_class)
                      if field.name not in read)
    assert unread == [], f"config fields nothing reads: {unread}"


# ------------------------------------------------------------------------------ registry
def test_registry_contains_all_paper_methods():
    expected = {"bsp", "backup-workers", "lb-bsp", "antdt-nd", "asp", "asp-dds", "antdt-nd-asp"}
    assert expected == set(PS_METHODS)


def test_registry_families_match_figures():
    assert [m.name for m in bsp_methods()] == ["antdt-nd", "bsp", "lb-bsp", "backup-workers"]
    assert [m.name for m in asp_methods()] == ["antdt-nd-asp", "asp-dds", "asp"]


def test_registry_native_asp_uses_static_partition():
    assert get_method("asp").allocator == "static"
    assert get_method("asp-dds").allocator == "dds"
    assert get_method("backup-workers").backup_workers == 1


def test_registry_unknown_method():
    with pytest.raises(KeyError):
        get_method("does-not-exist")


def test_registry_solution_instances_are_fresh():
    first = get_method("antdt-nd").make_solution()
    second = get_method("antdt-nd").make_solution()
    assert first is not second
    assert get_method("bsp").make_solution() is None


# ------------------------------------------------------------------------------ workloads
def test_experiment_scales_are_consistent():
    for scale in (SMALL, MEDIUM, LARGE):
        assert scale.global_batch_size == scale.per_worker_batch * scale.num_workers
        assert scale.num_samples % scale.global_batch_size == 0
        assert scale.transient_window_s <= scale.persistent_window_s


def test_scale_with_workers_scales_servers():
    scaled = SMALL.with_workers(12)
    assert scaled.num_workers == 12
    assert scaled.num_servers >= 1
    assert scaled.per_worker_batch == SMALL.per_worker_batch


def test_scale_validation():
    with pytest.raises(ValueError):
        ExperimentScale(name="bad", num_workers=0, num_servers=1, per_worker_batch=1,
                        iterations=1)


def test_antdt_config_factory_respects_scale():
    config = antdt_config(SMALL)
    assert config.control_interval_s == SMALL.control_interval_s
    assert config.min_batch_size == SMALL.per_worker_batch // 2


def test_ps_job_config_factory():
    config = ps_job_config(SMALL, consistency=ConsistencyModel.ASP, backup_workers=2)
    assert config.global_batch_size == SMALL.global_batch_size
    assert config.backup_workers == 2


def test_make_cpu_cluster_matches_scale():
    cluster = make_cpu_cluster(SMALL, seed=0)
    assert cluster.num_workers == SMALL.num_workers
    assert cluster.num_servers == SMALL.num_servers
    assert all(isinstance(node.contention, NoContention) for node in cluster.nodes)


def test_make_gpu_groups_counts():
    groups = make_gpu_groups(num_v100=2, num_p100=3)
    assert {g.name: g.count for g in groups} == {"V100": 2, "P100": 3}
    with pytest.raises(ValueError):
        make_gpu_groups(num_v100=0, num_p100=0)


def test_pending_model_busy_flag():
    idle = pending_model(SMALL, busy=False)
    busy = pending_model(SMALL, busy=True)
    assert not idle.is_busy(0.0)
    assert busy.is_busy(0.0)


# ------------------------------------------------------------------------------ stragglers
def test_worker_scenario_marks_persistent_and_transient_workers():
    cluster = make_cpu_cluster(SMALL, seed=0)
    affected = apply_scenario(cluster, worker_scenario(0.8), SMALL, seed=0)
    assert f"worker-{SMALL.num_workers - 1}" in affected
    assert len(affected) >= 2
    assert all(name.startswith("worker") for name in affected)


def test_server_scenario_marks_one_server():
    cluster = make_cpu_cluster(SMALL, seed=0)
    affected = apply_scenario(cluster, server_scenario(0.5), SMALL, seed=0)
    assert len(affected) == 1 and affected[0].startswith("server")
    node = cluster.get(affected[0])
    assert isinstance(node.contention, ConstantContention)


def test_no_straggler_scenario_changes_nothing():
    cluster = make_cpu_cluster(SMALL, seed=0)
    assert apply_scenario(cluster, NO_STRAGGLERS, SMALL, seed=0) == []
    assert all(isinstance(node.contention, NoContention) for node in cluster.nodes)


def test_trace_pattern_touches_every_node():
    cluster = make_cpu_cluster(SMALL, seed=0)
    apply_trace_pattern(cluster, SMALL, seed=0)
    assert not any(isinstance(node.contention, NoContention) for node in cluster.nodes)


def test_scenario_validation():
    with pytest.raises(ValueError):
        StragglerScenario(name="bad", side="gpu")
    with pytest.raises(ValueError):
        StragglerScenario(name="bad", side="worker", intensity=2.0)


# ------------------------------------------------------------------------------ reporting
def test_speedup_and_percent_faster():
    assert speedup(200.0, 100.0) == pytest.approx(2.0)
    assert percent_faster(200.0, 100.0) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        speedup(100.0, 0.0)
    with pytest.raises(ValueError):
        percent_faster(0.0, 10.0)


def test_format_table_alignment():
    table = format_table(["method", "jct"], [["bsp", 100.0], ["antdt-nd", 50.0]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("method")
    assert "antdt-nd" in table
