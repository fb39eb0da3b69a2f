"""Unit tests for the declarative scenario subsystem (repro.scenarios)."""

from dataclasses import replace

import pytest

from repro.experiments.stragglers import NO_STRAGGLERS, worker_scenario
from repro.experiments.workloads import SMALL, ExperimentScale
from repro.orchestrator import SweepRunner, simulate_spec
from repro.orchestrator.runner import summary_row
from repro.scenarios import (
    FailureEvent,
    FailureTraceSpec,
    ScenarioSpec,
    TopologySpec,
    all_scenarios,
    build_scenario_job,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.registry import SCENARIOS
from repro.sim.contention import CompositeContention, DeterministicSlowdown
from repro.sim.failures import ErrorCode


# ---------------------------------------------------------------------------
# Spec validation and resolution
# ---------------------------------------------------------------------------


def test_spec_rejects_unknown_method_scale_and_fields():
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", method="not-a-method")
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", scale="not-a-scale")
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", scale_overrides=(("not_a_field", 1.0),))
    with pytest.raises(ValueError):
        ScenarioSpec(name="")
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", scale="auto")  # auto needs topology.num_workers
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", scale="custom")  # custom needs the required fields


def test_failure_event_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FailureEvent(time_s=-1.0, node="worker-0")
    with pytest.raises(ValueError):
        FailureEvent(time_s=0.0, node="worker-0", code="not-a-code")
    assert FailureEvent(time_s=0.0, node="worker-0").error_code is ErrorCode.JOB_EVICTION


def test_topology_validation():
    with pytest.raises(ValueError):
        TopologySpec(num_workers=0)
    with pytest.raises(ValueError):
        TopologySpec(slow_worker_fraction=0.5)  # needs slow_factor > 1
    with pytest.raises(ValueError):
        TopologySpec(slow_worker_fraction=1.5, slow_factor=2.0)


def test_named_scale_resolution_applies_topology_and_overrides():
    spec = ScenarioSpec(
        name="sized",
        scale="small",
        topology=TopologySpec(num_workers=12),
        iterations=10,
        epochs=2,
        scale_overrides=(("control_interval_s", 7.0),),
    )
    scale = spec.resolve_scale()
    assert scale.num_workers == 12
    assert scale.num_servers == ExperimentScale.default_servers(12)
    assert scale.iterations == 10
    assert scale.epochs == 2
    assert scale.control_interval_s == 7.0


def test_auto_scale_matches_for_workers_factory():
    spec = ScenarioSpec(name="auto", scale="auto",
                        topology=TopologySpec(num_workers=48))
    resolved = spec.resolve_scale()
    reference = ExperimentScale.for_workers(48, name=resolved.name)
    assert resolved == reference


def test_auto_scale_applies_overrides():
    spec = ScenarioSpec(name="auto-tuned", scale="auto",
                        topology=TopologySpec(num_workers=48),
                        scale_overrides=(("per_worker_batch", 2048),))
    assert spec.resolve_scale().per_worker_batch == 2048


def test_for_scale_uses_name_for_registered_and_custom_otherwise():
    by_name = ScenarioSpec.for_scale(SMALL, name="by-name")
    assert by_name.scale == "small" and not by_name.scale_overrides

    bespoke = replace(SMALL, iterations=17)
    pinned = ScenarioSpec.for_scale(bespoke, name="pinned")
    assert pinned.scale == "custom"
    assert pinned.resolve_scale() == bespoke


def test_failure_event_normalizes_enum_codes():
    event = FailureEvent(time_s=1.0, node="worker-0", code=ErrorCode.MACHINE_FAILURE)
    assert event.code == "machine_failure"
    spec = ScenarioSpec(name="enum-code", failures=FailureTraceSpec(events=(event,)))
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_custom_scale_honours_server_only_topology():
    bespoke = replace(SMALL, iterations=17)
    spec = ScenarioSpec.for_scale(bespoke, name="servers-only",
                                  topology=TopologySpec(num_servers=1))
    assert spec.scale == "custom"
    assert spec.resolve_scale().num_servers == 1
    # ...consistently with the named-scale branch.
    named = ScenarioSpec(name="servers-only-named", scale="small",
                         topology=TopologySpec(num_servers=1))
    assert named.resolve_scale().num_servers == 1


def test_storm_builder_spaces_failures():
    trace = FailureTraceSpec.storm(("a", "b", "c"), start_s=10.0, interval_s=5.0)
    assert [event.time_s for event in trace.events] == [10.0, 15.0, 20.0]
    assert all(event.code == ErrorCode.JOB_EVICTION.value for event in trace.events)
    assert bool(trace)
    assert not FailureTraceSpec()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_registry_lookup_and_duplicate_guard():
    spec = get_scenario("dedicated-baseline")
    assert spec.method == "bsp"
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")
    with pytest.raises(ValueError):
        register_scenario(spec)  # already registered
    assert scenario_names() == sorted(SCENARIOS)


def test_registry_tag_filtering():
    failures = all_scenarios(tags=("failures",))
    assert failures and all("failures" in spec.tags for spec in failures)
    assert len(all_scenarios()) >= 12


def test_register_and_unregister_custom_scenario():
    custom = ScenarioSpec(name="unit-test-custom", method="bsp", seed=123,
                          stragglers=NO_STRAGGLERS, tags=("unit-test",))
    try:
        register_scenario(custom)
        assert get_scenario("unit-test-custom") == custom
        assert [spec.name for spec in all_scenarios(tags=("unit-test",))] == \
            ["unit-test-custom"]
    finally:
        SCENARIOS.pop("unit-test-custom", None)


# ---------------------------------------------------------------------------
# Building and running
# ---------------------------------------------------------------------------


def test_build_scenario_job_applies_heterogeneity():
    spec = ScenarioSpec(
        name="hetero-build",
        method="asp",
        topology=TopologySpec(slow_worker_fraction=0.5, slow_factor=3.0),
        stragglers=worker_scenario(0.8),
        seed=0,
    )
    job, _ = build_scenario_job(spec)
    workers = job.cluster.workers
    slowed = workers[: len(workers) // 2]
    for node in slowed:
        contention = node.contention
        if isinstance(contention, CompositeContention):
            assert any(isinstance(model, DeterministicSlowdown)
                       for model in contention.models)
        else:
            assert isinstance(contention, DeterministicSlowdown)


def test_failure_trace_is_injected_and_recorded():
    spec = ScenarioSpec(
        name="single-eviction",
        method="bsp",
        seed=5,
        failures=FailureTraceSpec(events=(
            FailureEvent(time_s=30.0, node="worker-1", code="job_eviction"),
        )),
    )
    result = simulate_spec(spec)
    assert result.run.completed
    assert result.run.restarts_per_node["worker-1"] == 1
    assert result.fingerprint["failures"] == [
        {"time_s": 30.0, "node": "worker-1", "code": "job_eviction"}]


def test_build_rejects_failure_trace_with_unknown_nodes():
    spec = ScenarioSpec(
        name="typo-node",
        method="bsp",
        failures=FailureTraceSpec(events=(
            FailureEvent(time_s=10.0, node="worker-99", code="job_eviction"),
        )),
    )
    with pytest.raises(ValueError, match="worker-99"):
        build_scenario_job(spec)


def test_refused_injection_is_logged_not_silent():
    """Two failures scheduled so close together that the second fires while the
    node is still mid-restart: the skipped one must show up in the run record."""
    spec = ScenarioSpec(
        name="double-hit",
        method="bsp",
        seed=5,
        failures=FailureTraceSpec(events=(
            FailureEvent(time_s=30.0, node="worker-1", code="job_eviction"),
            FailureEvent(time_s=31.0, node="worker-1", code="machine_failure"),
        )),
    )
    result = simulate_spec(spec)
    assert result.run.completed
    skipped = result.run.metrics.events("failure_skipped")
    assert [(tag, detail) for _, _, tag, detail in skipped] == \
        [("worker-1", "machine_failure")]
    # Only the granted injection reaches the fingerprint's failure history.
    assert [event["code"] for event in result.fingerprint["failures"]] == ["job_eviction"]


def test_matrix_runs_subset_and_reports():
    report = SweepRunner().run([get_scenario("dedicated-baseline"),
                                get_scenario("checkpoint-failover")])
    # The sweep must preserve submission order.
    assert [outcome.name for outcome in report.outcomes] == [
        "dedicated-baseline", "checkpoint-failover"]
    assert all(outcome.fingerprint["completed"] for outcome in report.outcomes)
    assert set(report.fingerprints()) == {"dedicated-baseline", "checkpoint-failover"}
    assert report.jobs >= 1


def test_matrix_exclude_tags_complements_tags():
    grid = all_scenarios(tags=("non-dedicated",), exclude_tags=("slow",))
    assert grid, "the non-dedicated grid must not be empty"
    assert all("slow" not in spec.tags for spec in grid)
    assert all("non-dedicated" in spec.tags for spec in grid)
    full = all_scenarios(tags=("non-dedicated",))
    dropped = {spec.name for spec in full} - {spec.name for spec in grid}
    assert dropped == {"scale-120w"}


def test_summary_row_tolerates_sparse_fingerprints():
    """A fingerprint without failures/restarts keys (older store entries) must
    degrade to zeros in the summary table instead of raising KeyError."""
    row = summary_row(get_scenario("dedicated-baseline"),
                      {"jct_s": 12.5, "completed": True})
    assert row == ["dedicated-baseline", "bsp", "12.5", 0, 0, 0]


def test_busy_cluster_gates_kill_restart():
    """On a congested cluster AntDT-ND must not fire KILL_RESTART (the
    pending-time gate), yet still mitigate via batch rebalancing."""
    result = simulate_spec(get_scenario("busy-cluster-gate"))
    assert result.run.completed
    assert sum(result.run.restarts_per_node.values()) == 0
    assert result.fingerprint["actions"].get("adjust_bs", 0) > 0


def test_persistent_only_scenario_affects_exactly_one_worker():
    from repro.experiments.stragglers import apply_scenario
    from repro.experiments.workloads import make_cpu_cluster

    spec = get_scenario("nd-persistent-only")
    scale = spec.resolve_scale()
    cluster = make_cpu_cluster(scale, seed=spec.seed)
    affected = apply_scenario(cluster, spec.stragglers, scale, seed=spec.seed)
    assert affected == [cluster.workers[-1].name]
