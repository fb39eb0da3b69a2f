"""Integration tests: full Parameter-Server training runs on the simulator."""

from dataclasses import replace

import pytest

from repro.core.actions import ActionType
from repro.experiments import (
    NO_STRAGGLERS,
    SMALL,
    server_scenario,
    worker_scenario,
)
from repro.experiments.workloads import ExperimentScale
from repro.orchestrator import simulate_spec
from repro.psarch.job import PSTrainingJob
from repro.psarch.server import ParameterServer
from repro.scenarios import ScenarioSpec, TopologySpec, build_scenario_job, get_scenario
from repro.scenarios.fingerprint import fingerprint

TINY = ExperimentScale(
    name="tiny",
    num_workers=4,
    num_servers=2,
    per_worker_batch=2048,
    iterations=30,
    batches_per_shard=1,
    control_interval_s=10.0,
    transient_window_s=10.0,
    persistent_window_s=20.0,
    kill_restart_cooldown_s=30.0,
    idle_pending_time_s=2.0,
    node_init_time_s=4.0,
    worker_recovery_s=3.0,
    server_recovery_s=4.0,
)


def _spec(method, stragglers, seed=0, scale=TINY, **kwargs):
    """A PS run of ``method`` at ``scale`` (TINY by default) under ``stragglers``."""
    return ScenarioSpec.for_scale(scale, name=f"ps-{method}-{stragglers.name}-seed{seed}",
                                  method=method, stragglers=stragglers, seed=seed, **kwargs)


def test_bsp_clean_run_consumes_every_sample():
    result = simulate_spec(_spec("bsp", NO_STRAGGLERS)).run
    assert result.completed
    assert result.samples_confirmed == result.total_samples
    assert result.done_shards == result.total_shards
    assert result.jct > 0


def test_asp_clean_run_consumes_every_sample():
    result = simulate_spec(_spec("asp", NO_STRAGGLERS)).run
    assert result.completed
    assert result.samples_confirmed == result.total_samples


def test_worker_stragglers_slow_down_native_bsp():
    clean = simulate_spec(_spec("bsp", NO_STRAGGLERS)).run
    straggled = simulate_spec(_spec("bsp", worker_scenario(0.8))).run
    assert straggled.jct > 1.5 * clean.jct


def test_antdt_nd_beats_native_bsp_under_worker_stragglers():
    scenario = worker_scenario(0.8)
    bsp = simulate_spec(_spec("bsp", scenario)).run
    antdt = simulate_spec(_spec("antdt-nd", scenario)).run
    assert antdt.completed and bsp.completed
    assert antdt.jct < bsp.jct
    assert antdt.samples_confirmed == antdt.total_samples


def test_antdt_nd_kill_restarts_persistent_server_straggler():
    result = simulate_spec(_spec("antdt-nd", server_scenario(0.8))).run
    assert result.completed
    server_restarts = {node: count for node, count in result.restarts_per_node.items()
                       if node.startswith("server") and count > 0}
    assert server_restarts, "the straggling server should have been relaunched"
    bsp = simulate_spec(_spec("bsp", server_scenario(0.8))).run
    assert result.jct < bsp.jct


def test_antdt_nd_adjusts_batch_sizes_under_transient_stragglers():
    result = simulate_spec(_spec("antdt-nd", worker_scenario(0.8), seed=1, scale=SMALL)).run
    adjust_actions = [a for a in result.action_log
                      if a.action_type is ActionType.ADJUST_BS]
    assert adjust_actions, "AntDT-ND should issue at least one ADJUST_BS action"
    assert result.samples_confirmed == result.total_samples


def test_backup_workers_drop_and_requeue_preserves_data():
    result = simulate_spec(_spec("backup-workers", worker_scenario(0.8))).run
    assert result.completed
    assert result.dropped_iterations > 0
    # At-least-once: everything still confirmed despite the drops.
    assert result.samples_confirmed == result.total_samples
    assert result.done_shards == result.total_shards


def test_asp_dds_balances_consumption_better_than_static_asp():
    scenario = worker_scenario(0.8)
    static = simulate_spec(_spec("asp", scenario)).run
    dds = simulate_spec(_spec("asp-dds", scenario)).run
    assert dds.jct < static.jct
    # With the DDS the straggler consumes fewer samples than the leaders.
    consumed = dds.consumed_per_worker
    straggler = "worker-3"  # the scenario's persistent straggler is the last worker
    leaders = [v for k, v in consumed.items() if k != straggler]
    assert consumed[straggler] < min(leaders)


def test_worker_kill_restart_resumes_and_completes():
    job, _ = build_scenario_job(_spec("antdt-nd", worker_scenario(1.0), seed=3))
    result = job.run()
    assert result.completed
    assert result.samples_confirmed == result.total_samples
    assert sum(result.restarts_per_node.values()) >= 1
    # The framework overhead (Agent syncs plus DDS operations, as Fig. 18
    # splits it) stays a small fraction of the JCT.
    overhead = job.agent_group.total_overhead_s + job.allocator.total_overhead_s
    assert overhead < 0.1 * result.jct


def test_cluster_busy_gates_kill_restart():
    scenario = worker_scenario(0.8)
    result = simulate_spec(_spec("antdt-nd", scenario,
                                 topology=TopologySpec(cluster_busy=True))).run
    assert result.completed
    worker_restarts = sum(count for node, count in result.restarts_per_node.items()
                          if node.startswith("worker"))
    assert worker_restarts == 0


def test_jct_monotone_in_straggler_intensity_for_bsp():
    jcts = [simulate_spec(_spec("bsp", worker_scenario(i))).run.jct
            for i in (0.1, 0.5, 0.8)]
    assert jcts[0] < jcts[1] < jcts[2]


def test_antdt_jct_less_sensitive_to_intensity_than_bsp():
    low_b = simulate_spec(_spec("bsp", worker_scenario(0.1))).run.jct
    high_b = simulate_spec(_spec("bsp", worker_scenario(0.8))).run.jct
    low_a = simulate_spec(_spec("antdt-nd", worker_scenario(0.1))).run.jct
    high_a = simulate_spec(_spec("antdt-nd", worker_scenario(0.8))).run.jct
    assert (high_a - low_a) < (high_b - low_b)


@pytest.mark.parametrize("coalesce", [True, False], ids=["coalesced", "uncoalesced"])
@pytest.mark.parametrize("name", ["dedicated-antdt-nd", "server-eviction",
                                  "elastic-churn-storm", "nd-transient-heavy-antdt"])
def test_server_series_holds_one_point_per_acknowledged_push(name, coalesce):
    """A server's ``server_bpt`` series is its only record: one point per push.

    Every finished worker iteration pushed once to every server, so each
    server's series is as long as all workers' ``bpt`` series together —
    under kill-restarts, worker churn and coalesced-window rollbacks alike.
    ``nd-transient-heavy-antdt`` rolls back windows that keep their
    in-flight entry, whose point must survive the cut.
    """
    job = simulate_spec(get_scenario(name), coalesce=coalesce).job
    metrics = job.metrics
    pushes = sum(len(metrics.series("bpt", tag=tag)) for tag in metrics.tags("bpt"))
    assert pushes > 0
    for server in job.servers:
        assert len(metrics.series("server_bpt", tag=server.name)) == pushes


def _count_commits(monkeypatch):
    """Count the routes a push took: fan-outs committed on the group row,
    fan-outs declined to per-server submits, and submits."""
    counts = {"group": 0, "declined": 0, "submits": 0}
    push_fanout = PSTrainingJob.push_fanout
    submit = ParameterServer.submit

    def counted_fanout(*args):
        committed = push_fanout(*args)
        counts["group" if committed else "declined"] += 1
        return committed

    def counted_submit(*args, **kwargs):
        counts["submits"] += 1
        return submit(*args, **kwargs)

    monkeypatch.setattr(PSTrainingJob, "push_fanout", counted_fanout)
    monkeypatch.setattr(ParameterServer, "submit", counted_submit)
    return counts


def _in_group(server):
    """Whether ``server`` still reads the lock-step group's row."""
    return server._row != server._slot


def _run_like_uncoalesced(monkeypatch, spec, detached=0):
    """Run ``spec`` coalesced, with its first ``detached`` servers taken out
    of the lock-step group, and check it records what the uncoalesced run
    does: fingerprint, every ``server_bpt`` series and the logical events.
    Returns the job and the coalesced run's commit counts."""
    slow = simulate_spec(spec, coalesce=False)
    counts = _count_commits(monkeypatch)
    job, injector = build_scenario_job(spec)
    for server in job.servers[:detached]:
        server._detach()
    run = job.run()
    assert run.completed
    assert fingerprint(spec, run, injector) == slow.fingerprint
    for server in job.servers:
        ours = run.metrics.series("server_bpt", server.name)
        theirs = slow.run.metrics.series("server_bpt", server.name)
        assert (ours.times(), ours.values()) == (theirs.times(), theirs.values())
    assert run.engine_events_processed == slow.run.engine_events_processed
    return job, counts


@pytest.mark.parametrize("servers", range(2, 13))
def test_a_lock_step_tier_commits_every_push_through_its_group(monkeypatch, servers):
    """Servers that start alike and receive every push together stay one
    group: each fan-out, however narrow, commits one point on the group row."""
    counts = _count_commits(monkeypatch)
    job, _ = build_scenario_job(_spec("bsp", NO_STRAGGLERS,
                                      scale=replace(TINY, num_servers=servers)))
    assert job.run().completed
    assert counts["group"] > 0
    assert counts["declined"] == counts["submits"] == 0
    assert all(_in_group(server) for server in job.servers)


@pytest.mark.parametrize("servers", range(2, 13))
def test_a_detached_tier_submits_every_push_per_server(monkeypatch, servers):
    """Once a member has left the group, every fan-out declines and the
    worker submits to each server, which commits the push on its own row
    (leaving the group at its first): at any width, the run records what
    the uncoalesced run does."""
    spec = _spec("bsp", NO_STRAGGLERS, scale=replace(TINY, num_servers=servers))
    job, counts = _run_like_uncoalesced(monkeypatch, spec, detached=1)
    assert counts["declined"] > 0
    assert counts["group"] == 0
    assert counts["submits"] == servers * counts["declined"]
    assert not any(_in_group(server) for server in job.servers)


@pytest.mark.parametrize("servers", [2, 5, 12])
def test_a_tier_with_a_contended_member_declines_every_fan_out(monkeypatch, servers):
    """A contended server never accepts a fan-out's commit, so every
    fan-out that includes it declines to per-server submits."""
    _, counts = _run_like_uncoalesced(monkeypatch, _spec(
        "bsp", server_scenario(0.8), scale=replace(TINY, num_servers=servers)))
    assert counts["declined"] > 0
    assert counts["submits"] == servers * counts["declined"]
    assert counts["group"] == 0
