"""Unit tests for actions, detection, solvers, monitor, agents and solutions."""

import pytest

from repro.core.actions import (
    ActionKind,
    ActionType,
    AdjustBatchSize,
    AdjustLearningRate,
    BackupWorkers,
    KillRestart,
    NoneAction,
)
from repro.core.agent import AgentGroup
from repro.core.config import AntDTConfig, ConsistencyModel
from repro.core.controller import ControlContext
from repro.core.detection import classify_stragglers, detect_stragglers
from repro.core.monitor import Monitor
from repro.core.solutions import AntDTND
from repro.core.solvers import solve_batch_sizes
from repro.baselines.solutions import AdjustLRSolution, LBBSPSolution


# ------------------------------------------------------------------------------- actions
def test_action_kinds_and_types():
    assert AdjustBatchSize(batch_sizes={"w0": 10}).kind is ActionKind.GLOBAL
    assert KillRestart(node_name="w0").kind is ActionKind.NODE
    assert NoneAction().kind is ActionKind.NONE
    assert BackupWorkers(num_backup=1).action_type is ActionType.BACKUP_WORKERS
    assert AdjustLearningRate(factors={"w0": 0.5}).action_type is ActionType.ADJUST_LR


def test_adjust_batch_size_validation_and_description():
    with pytest.raises(ValueError):
        AdjustBatchSize(batch_sizes={})
    with pytest.raises(ValueError):
        AdjustBatchSize(batch_sizes={"w0": 0})
    action = AdjustBatchSize(batch_sizes={"w0": 32})
    assert "w0=32" in action.describe()


def test_kill_restart_requires_node_name():
    with pytest.raises(ValueError):
        KillRestart(node_name="")


def test_adjust_lr_validation():
    with pytest.raises(ValueError):
        AdjustLearningRate(factors={"w0": 0.0})


def test_backup_workers_validation():
    with pytest.raises(ValueError):
        BackupWorkers(num_backup=-1)


# ------------------------------------------------------------------------------ detection
def test_detect_stragglers_flags_slow_nodes():
    report = detect_stragglers({"w0": 1.0, "w1": 1.1, "w2": 5.0}, slowness_ratio=1.5)
    assert report.stragglers == ["w2"]


def test_detect_stragglers_empty_input():
    report = detect_stragglers({}, slowness_ratio=1.5)
    assert report.stragglers == []


def test_detect_stragglers_requires_ratio_above_one():
    with pytest.raises(ValueError):
        detect_stragglers({"w0": 1.0}, slowness_ratio=1.0)


def test_classify_stragglers_splits_transient_and_persistent():
    short = {"w0": 1.0, "w1": 4.0, "w2": 1.0, "w3": 4.0}
    long = {"w0": 1.0, "w1": 1.1, "w2": 1.0, "w3": 4.0}
    groups = classify_stragglers(short, long, slowness_ratio=1.5)
    assert groups["persistent"] == ["w3"]
    assert groups["transient"] == ["w1"]


# -------------------------------------------------------------------------------- solvers
def test_solve_batch_sizes_sum_and_proportionality():
    sizes = solve_batch_sizes({"fast": 400.0, "slow": 100.0}, global_batch=1000)
    assert sum(sizes.values()) == 1000
    assert sizes["fast"] > sizes["slow"]


def test_solve_batch_sizes_respects_min_batch():
    sizes = solve_batch_sizes({"fast": 1000.0, "slow": 1.0}, global_batch=100, min_batch=20)
    assert sizes["slow"] >= 20
    assert sum(sizes.values()) == 100


def test_solve_batch_sizes_respects_max_batch():
    sizes = solve_batch_sizes({"a": 10.0, "b": 10.0}, global_batch=100,
                              max_batch={"a": 30, "b": 100})
    assert sizes["a"] <= 30
    assert sum(sizes.values()) == 100


def test_solve_batch_sizes_infeasible_min():
    with pytest.raises(ValueError):
        solve_batch_sizes({"a": 1.0, "b": 1.0}, global_batch=10, min_batch=20)


def test_solve_batch_sizes_rejects_non_positive_throughput():
    with pytest.raises(ValueError):
        solve_batch_sizes({"a": 0.0}, global_batch=10)


# -------------------------------------------------------------------------------- monitor
def test_monitor_sliding_window_means():
    monitor = Monitor()
    monitor.report_worker("w0", bpt=1.0, batch_size=100, time=10.0)
    monitor.report_worker("w0", bpt=3.0, batch_size=100, time=20.0)
    monitor.report_worker("w1", bpt=2.0, batch_size=100, time=20.0)
    means = monitor.worker_bpt_means(window_s=15.0, now=25.0)
    assert means["w0"] == pytest.approx(3.0)
    assert means["w1"] == pytest.approx(2.0)


def test_monitor_throughput_derivation():
    monitor = Monitor()
    monitor.report_worker("w0", bpt=2.0, batch_size=200, time=5.0)
    throughput = monitor.worker_throughputs(window_s=10.0, now=6.0)
    assert throughput["w0"] == pytest.approx(100.0)


def test_monitor_third_party_provider():
    monitor = Monitor()
    monitor.register_third_party("pending_time", lambda: 42.0)
    assert monitor.third_party("pending_time") == 42.0
    assert monitor.third_party("unknown", default=7.0) == 7.0


@pytest.mark.parametrize("busy", [False, True])
def test_third_party_information_reaches_both_control_loops(busy):
    """Pending time and cluster busy reach the Controller and the Autoscaler."""
    from repro.elastic import ElasticSpec
    from repro.scenarios import ScenarioSpec, TopologySpec, build_scenario_job

    spec = ScenarioSpec(name="unit-third-party", method="antdt-nd", seed=1,
                        topology=TopologySpec(cluster_busy=busy),
                        elastic=ElasticSpec(policy="utilization"))
    job, _ = build_scenario_job(spec)
    pending = job.scheduler.pending_time()
    assert pending == (600.0 if busy else 5.0)
    for context in (job.controller.build_context(), job.autoscaler.build_context()):
        assert context.cluster_busy == busy
        assert context.pending_time_s == pending


def test_monitor_rejects_invalid_reports():
    monitor = Monitor()
    with pytest.raises(ValueError):
        monitor.report_worker("w0", bpt=-1.0, batch_size=10, time=0.0)


# --------------------------------------------------------------------------------- agents
def _agent_group(report_interval=2):
    config = AntDTConfig(report_interval_iters=report_interval)
    return AgentGroup(Monitor(), config)


def test_agent_group_broadcast_reaches_every_agent_once():
    group = _agent_group()
    group.create_agent("w0")
    second = group.create_agent("w1")
    generation = group.broadcast(AdjustBatchSize(batch_sizes={"w0": 1, "w1": 2}))
    assert generation == 1
    actions, overhead = second.poll()
    assert len(actions) == 1 and overhead > 0
    # Polling again returns nothing new and charges nothing.
    actions, overhead = second.poll()
    assert actions == [] and overhead == 0.0


def test_agent_reports_flush_every_interval():
    group = _agent_group(report_interval=3)
    agent = group.create_agent("w0")
    assert agent.report_iteration(1.0, 10, time=1.0) == 0.0
    assert agent.report_iteration(2.0, 10, time=2.0) == 0.0
    charge = agent.report_iteration(3.0, 10, time=3.0)
    assert charge > 0
    means = group.monitor.worker_bpt_means(window_s=10.0, now=4.0)
    assert means["w0"] == pytest.approx(2.0)


def test_agent_reset_after_restart_skips_stale_actions():
    group = _agent_group()
    agent = group.create_agent("w0")
    group.broadcast(NoneAction())
    agent.reset_after_restart()
    actions, _ = agent.poll()
    assert actions == []


def test_agent_group_rejects_duplicate_agents():
    group = _agent_group()
    group.create_agent("w0")
    with pytest.raises(ValueError):
        group.create_agent("w0")


def test_only_workers_get_agents():
    """Every worker has an Agent; servers run none."""
    from repro.orchestrator import simulate_spec
    from repro.scenarios import build_scenario_job, get_scenario

    job, _ = build_scenario_job(get_scenario("dedicated-antdt-nd"))
    for worker in job.workers:
        assert job.agent_group.agent(worker.name).node_name == worker.name
    for server in job.servers:
        with pytest.raises(KeyError):
            job.agent_group.agent(server.name)
    # A server that joins mid-run gets no Agent either.
    job = simulate_spec(get_scenario("elastic-server-scale-out")).job
    assert "server-3" in [server.name for server in job.servers]
    with pytest.raises(KeyError):
        job.agent_group.agent("server-3")


# ------------------------------------------------------------------------------ solutions
def _context(short, long, servers=None, throughputs=None, busy=False,
             consistency=ConsistencyModel.BSP, workers=None):
    workers = workers if workers is not None else sorted(short)
    throughputs = throughputs if throughputs is not None else {w: 100.0 for w in workers}
    return ControlContext(
        now=1000.0,
        config=AntDTConfig(),
        consistency=consistency,
        global_batch_size=1000,
        active_workers=workers,
        active_servers=sorted(servers) if servers else [],
        worker_short_bpts=short,
        worker_long_bpts=long,
        worker_throughputs=throughputs,
        server_long_bpts=servers or {},
        cluster_busy=busy,
    )


def test_antdt_nd_adjusts_batch_size_for_transient_stragglers():
    ctx = _context(short={"w0": 1.0, "w1": 1.0, "w2": 4.0},
                   long={"w0": 1.0, "w1": 1.0, "w2": 1.0},
                   throughputs={"w0": 400.0, "w1": 400.0, "w2": 100.0})
    actions = AntDTND().decide(ctx)
    assert any(isinstance(action, AdjustBatchSize) for action in actions)


def test_antdt_nd_kills_persistent_worker_straggler():
    ctx = _context(short={"w0": 1.0, "w1": 1.0, "w2": 5.0},
                   long={"w0": 1.0, "w1": 1.0, "w2": 5.0})
    actions = AntDTND().decide(ctx)
    kills = [a for a in actions if isinstance(a, KillRestart)]
    assert len(kills) == 1 and kills[0].node_name == "w2"


def test_antdt_nd_defers_kill_restart_when_cluster_busy():
    ctx = _context(short={"w0": 1.0, "w1": 5.0}, long={"w0": 1.0, "w1": 5.0}, busy=True)
    actions = AntDTND().decide(ctx)
    assert not any(isinstance(a, KillRestart) for a in actions)


def test_antdt_nd_kills_server_straggler():
    ctx = _context(short={"w0": 1.0, "w1": 1.0}, long={"w0": 1.0, "w1": 1.0},
                   servers={"s0": 0.1, "s1": 2.0})
    actions = AntDTND().decide(ctx)
    kills = [a for a in actions if isinstance(a, KillRestart)]
    assert [k.node_name for k in kills] == ["s1"]


def test_antdt_nd_asp_mode_never_adjusts_batch_size():
    ctx = _context(short={"w0": 1.0, "w1": 4.0}, long={"w0": 1.0, "w1": 1.0},
                   consistency=ConsistencyModel.ASP)
    actions = AntDTND().decide(ctx)
    assert not any(isinstance(a, AdjustBatchSize) for a in actions)


def test_antdt_nd_returns_none_action_when_healthy():
    ctx = _context(short={"w0": 1.0, "w1": 1.0}, long={"w0": 1.0, "w1": 1.0})
    actions = AntDTND().decide(ctx)
    assert len(actions) == 1 and isinstance(actions[0], NoneAction)


def test_antdt_nd_respects_restart_budget():
    ctx = _context(short={"w0": 1.0, "w1": 5.0}, long={"w0": 1.0, "w1": 5.0})
    ctx.restarts_per_node = {"w1": AntDTConfig().max_kill_restarts_per_node}
    actions = AntDTND().decide(ctx)
    assert not any(isinstance(a, KillRestart) for a in actions)


def test_lb_bsp_solution_rebalances_proportionally():
    ctx = _context(short={"w0": 1.0, "w1": 2.0}, long={"w0": 1.0, "w1": 2.0},
                   throughputs={"w0": 300.0, "w1": 100.0})
    actions = LBBSPSolution().decide(ctx)
    assert isinstance(actions[0], AdjustBatchSize)
    sizes = actions[0].batch_sizes
    assert sizes["w0"] > sizes["w1"]
    assert sum(sizes.values()) == 1000


def test_lb_bsp_solution_skips_small_changes():
    solution = LBBSPSolution(rebalance_threshold=0.5)
    ctx = _context(short={"w0": 1.0, "w1": 1.0}, long={"w0": 1.0, "w1": 1.0},
                   throughputs={"w0": 101.0, "w1": 100.0})
    first = solution.decide(ctx)
    second = solution.decide(ctx)
    assert isinstance(first[0], AdjustBatchSize)
    assert isinstance(second[0], NoneAction)


def test_adjust_lr_solution_penalises_stragglers_once():
    solution = AdjustLRSolution(penalty=0.5)
    ctx = _context(short={"w0": 1.0, "w1": 5.0}, long={"w0": 1.0, "w1": 5.0})
    first = solution.decide(ctx)
    assert isinstance(first[0], AdjustLearningRate)
    assert first[0].factors == {"w1": 0.5}
    second = solution.decide(ctx)
    assert isinstance(second[0], NoneAction)


def test_monitor_first_window_includes_time_zero_observation():
    # Boundary semantics (see Monitor._window_start): windows are half-open
    # (start, now], so a report recorded exactly at t=0 would fall out of the
    # first window computed naively as (0 - eps, ...] = (0, window]; the
    # Monitor widens any window reaching the start of the run to cover it.
    monitor = Monitor()
    monitor.report_worker("worker-0", bpt=2.0, batch_size=32, time=0.0)
    monitor.report_worker("worker-0", bpt=4.0, batch_size=32, time=10.0)
    means = monitor.worker_bpt_means(window_s=20.0, now=20.0)
    assert means["worker-0"] == pytest.approx(3.0)


def test_monitor_later_windows_stay_half_open():
    monitor = Monitor()
    monitor.report_worker("worker-0", bpt=2.0, batch_size=32, time=30.0)
    monitor.report_worker("worker-0", bpt=6.0, batch_size=32, time=40.0)
    # Window (30, 50]: the observation exactly at the window start belongs to
    # the previous window and must not be double counted.
    means = monitor.worker_bpt_means(window_s=20.0, now=50.0)
    assert means["worker-0"] == pytest.approx(6.0)


def test_monitor_server_window_boundary_matches_worker_windows():
    monitor = Monitor()
    monitor.metrics.record(Monitor.SERVER_BPT, 1.0, 0.0, tag="server-0")
    means = monitor.server_bpt_means(window_s=5.0, now=5.0)
    assert means["server-0"] == pytest.approx(1.0)
