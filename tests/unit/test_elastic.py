"""Unit tests for the elastic scaling subsystem (repro.elastic).

Covers the action set, the declarative ElasticSpec, the autoscaler policies
and control loop, elastic cluster membership (join/leave at simulation time,
scheduler-gated provisioning), the PS job's scale-out/scale-in execution with
shard-accounting and exactly-once proofs, the stale-event regression for
node removal mid-step, and the elastic AllReduce phase model.
"""

import pytest

from repro.core.actions import ActionType, ScaleIn, ScaleOut
from repro.core.config import AntDTConfig
from repro.core.controller import ActionExecutor
from repro.core.sharding import StatefulDDS
from repro.elastic import (
    Autoscaler,
    ElasticContext,
    ElasticExecutor,
    ElasticSpec,
    SCALE_IN,
    ScaleEvent,
    ScheduledCapacityPolicy,
    ShardConservationError,
    StragglerPressurePolicy,
    UtilizationThresholdPolicy,
    audit_allocator,
    make_policy,
    verify_exactly_once,
)
from repro.elastic.membership import MembershipLog
from repro.obs.recorder import TraceRecorder
from repro.orchestrator import simulate_spec
from repro.scenarios import ScenarioSpec, TopologySpec, build_scenario_job
from repro.sim.cluster import NodeRole, NodeSpec, NodeStatus
from repro.sim.engine import CountdownEvent, Environment
from repro.sim.hardware import CPU_WORKER_16C


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def test_scale_actions_validate_and_describe():
    out = ScaleOut(num_workers=2)
    assert out.action_type is ActionType.SCALE_OUT
    assert out.describe() == "SCALE_OUT(+2)"
    scale_in = ScaleIn(node_names=("worker-3", "worker-4"))
    assert scale_in.action_type is ActionType.SCALE_IN
    assert "worker-3" in scale_in.describe()
    with pytest.raises(ValueError):
        ScaleOut(num_workers=0)
    with pytest.raises(ValueError):
        ScaleIn(node_names=())
    with pytest.raises(ValueError):
        ScaleIn(node_names=("a", "a"))


# ---------------------------------------------------------------------------
# ElasticSpec serialization
# ---------------------------------------------------------------------------


def test_elastic_spec_roundtrips_losslessly():
    spec = ElasticSpec(
        events=(ScaleEvent(time_s=10.0, action="out", count=2),
                ScaleEvent(time_s=50.0, action="in", nodes=("worker-7",))),
        policy="scheduled-capacity",
        policy_params=(("schedule", [[0.0, 6], [30.0, 9]]),),
        interval_s=15.0,
        cooldown_s=30.0,
        min_workers=2,
        max_workers=12,
    )
    assert ElasticSpec.from_dict(spec.to_dict()) == spec
    assert bool(spec)
    assert not ElasticSpec()


def test_elastic_spec_normalises_nested_tuples():
    with_tuples = ElasticSpec(policy="scheduled-capacity",
                              policy_params=(("schedule", ((0.0, 6), (30.0, 9))),))
    assert ElasticSpec.from_dict(with_tuples.to_dict()) == with_tuples


def test_elastic_spec_validation():
    with pytest.raises(ValueError):
        ElasticSpec(policy="no-such-policy")
    with pytest.raises(ValueError):
        ElasticSpec(policy_params=(("x", 1),))  # params without a policy
    with pytest.raises(ValueError):
        ElasticSpec(min_workers=0)
    with pytest.raises(ValueError):
        ElasticSpec(min_workers=4, max_workers=2)
    with pytest.raises(ValueError):
        ScaleEvent(time_s=-1.0, action="out")
    with pytest.raises(ValueError):
        ScaleEvent(time_s=0.0, action="sideways")
    with pytest.raises(ValueError):
        ScaleEvent(time_s=0.0, action="out", nodes=("w",))  # names only for "in"
    # Explicit scale-in names define the count.
    assert ScaleEvent(time_s=0.0, action="in", nodes=("a", "b")).count == 2


def test_scenario_spec_rejects_elastic_with_static_allocator():
    with pytest.raises(ValueError, match="DDS-based"):
        ScenarioSpec(name="bad", method="asp",
                     elastic=ElasticSpec(events=(
                         ScaleEvent(time_s=1.0, action="out"),)))


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


def _context(**overrides):
    defaults = dict(
        now=100.0,
        active_workers=["worker-0", "worker-1", "worker-2"],
        pending_workers=0,
        min_workers=1,
        max_workers=6,
        cluster_busy=False,
        pending_time_s=5.0,
        remaining_samples=100_000,
        worker_throughputs={"worker-0": 100.0, "worker-1": 100.0,
                            "worker-2": 100.0},
        worker_long_bpts={"worker-0": 1.0, "worker-1": 1.0, "worker-2": 1.0},
    )
    defaults.update(overrides)
    defaults.setdefault("committed_workers", len(defaults["active_workers"])
                        + defaults["pending_workers"])
    return ElasticContext(**defaults)


def test_utilization_policy_scales_out_on_long_eta():
    policy = UtilizationThresholdPolicy(scale_out_horizon_s=120.0,
                                        scale_in_horizon_s=20.0)
    # eta = 100000 / 300 = 333s > 120 -> out.
    actions = policy.decide(_context())
    assert len(actions) == 1 and isinstance(actions[0], ScaleOut)
    # A busy cluster gates the request.
    assert policy.decide(_context(cluster_busy=True)) == []
    # No headroom: committed membership at the cap.
    assert policy.decide(_context(pending_workers=3)) == []


def test_utilization_policy_scales_in_newest_on_short_eta():
    policy = UtilizationThresholdPolicy(scale_out_horizon_s=120.0,
                                        scale_in_horizon_s=20.0)
    actions = policy.decide(_context(remaining_samples=3000))  # eta = 10s
    assert len(actions) == 1 and isinstance(actions[0], ScaleIn)
    assert actions[0].node_names == ("worker-2",)  # the newest
    # The floor blocks the retirement.
    assert policy.decide(_context(remaining_samples=3000, min_workers=3)) == []
    # Unknown throughput (no reports yet): no decision.
    assert policy.decide(_context(worker_throughputs={})) == []


def test_straggler_pressure_policy_retires_worst_offender():
    policy = StragglerPressurePolicy()
    bpts = {"worker-0": 1.0, "worker-1": 1.0, "worker-2": 4.0}
    actions = policy.decide(_context(worker_long_bpts=bpts))
    assert len(actions) == 1 and isinstance(actions[0], ScaleIn)
    assert actions[0].node_names == ("worker-2",)
    # replace=True also requests a healthy replacement when not busy.
    replacing = StragglerPressurePolicy(replace=True)
    actions = replacing.decide(_context(worker_long_bpts=bpts))
    assert [type(action) for action in actions] == [ScaleIn, ScaleOut]
    # No straggler -> no action.
    assert policy.decide(_context()) == []


def test_scheduled_capacity_policy_follows_the_plan():
    policy = ScheduledCapacityPolicy(schedule=[[0.0, 3], [50.0, 5], [90.0, 2]])
    assert policy.target_at(0.0) == 3
    assert policy.target_at(60.0) == 5
    assert policy.target_at(95.0) == 2
    # At t=100 (after the 90s step) the target is 2: retire the newest one
    # (min_workers=1 allows it); at t=60 the target is 5: request two more.
    shrink = policy.decide(_context(now=100.0))
    assert isinstance(shrink[0], ScaleIn) and len(shrink[0].node_names) == 1
    grow = policy.decide(_context(now=60.0))
    assert isinstance(grow[0], ScaleOut) and grow[0].num_workers == 2
    # Pending pods count toward the plan: nothing more to request.
    assert policy.decide(_context(now=60.0, pending_workers=2)) == []
    # So do relaunching workers, which the job's committed count includes.
    assert policy.decide(_context(now=60.0, committed_workers=5)) == []
    with pytest.raises(ValueError):
        ScheduledCapacityPolicy(schedule=[])
    with pytest.raises(ValueError):
        ScheduledCapacityPolicy(schedule=[[50.0, 3], [0.0, 5]])  # unsorted


def test_make_policy_registry():
    assert isinstance(make_policy("utilization"), UtilizationThresholdPolicy)
    assert isinstance(
        make_policy("scheduled-capacity", schedule=[[0.0, 4]]),
        ScheduledCapacityPolicy)
    with pytest.raises(KeyError):
        make_policy("nope")


# ---------------------------------------------------------------------------
# Autoscaler control loop
# ---------------------------------------------------------------------------


class _StubExecutor:
    """Minimal ElasticExecutor double recording every request."""

    elastic_min_workers = 1
    elastic_max_workers = None
    elastic_min_servers = 1
    elastic_max_servers = None

    def __init__(self):
        self.finished = False
        self.active = ["worker-0", "worker-1"]
        self.calls = []

    def active_worker_names(self):
        return list(self.active)

    def pending_worker_count(self):
        return 0

    def committed_worker_count(self):
        return len(self.active)

    def remaining_samples(self):
        return 1_000_000

    def request_scale_out(self, count, reason):
        self.calls.append(("out", count, reason))
        names = [f"worker-{len(self.active) + index}" for index in range(count)]
        self.active.extend(names)
        return names

    def request_scale_in(self, node_names, reason):
        self.calls.append(("in", tuple(node_names), reason))
        granted = [name for name in node_names if name in self.active]
        for name in granted:
            self.active.remove(name)
        return granted

    # A static server tier: no servers to scale, no serving traffic.
    def active_server_names(self):
        return []

    def pending_server_count(self):
        return 0

    def committed_server_count(self):
        return 0

    def server_queue_depths(self):
        return {}

    def server_shard_weights(self):
        return {}

    def serving_slo_snapshot(self):
        return None

    def request_server_scale_out(self, count, reason):
        self.calls.append(("server-out", count, reason))
        return []

    def request_server_scale_in(self, node_names, reason):
        self.calls.append(("server-in", tuple(node_names), reason))
        return []


class _AlwaysOut:
    name = "always-out"

    def decide(self, context):
        return [ScaleOut(num_workers=1, reason="test")]


def test_autoscaler_cooldown_damps_flapping():
    env = Environment()
    from repro.core.monitor import Monitor

    executor = _StubExecutor()
    recorder = TraceRecorder()
    autoscaler = Autoscaler(
        env=env, monitor=Monitor(), policy=_AlwaysOut(), executor=executor,
        config=AntDTConfig(), interval_s=10.0, cooldown_s=25.0, recorder=recorder)
    env.process(autoscaler.run())
    env.run(until=65.0)
    # Rounds at t=10..60; the 25s cooldown after every granted action thins
    # them to t=10, 40 (t=20/30 suppressed), then t=70 would be next.
    assert [call[0] for call in executor.calls] == ["out", "out"]
    assert [decision.verdict for decision in recorder.decisions] == [
        "scale-out", "cooldown", "cooldown", "scale-out", "cooldown", "cooldown"]
    assert [decision.granted for decision in recorder.decisions
            if decision.granted] == [("worker-2",), ("worker-3",)]


def test_autoscaler_stops_when_job_finishes():
    env = Environment()
    from repro.core.monitor import Monitor

    executor = _StubExecutor()
    autoscaler = Autoscaler(env=env, monitor=Monitor(), policy=_AlwaysOut(),
                            executor=executor, config=AntDTConfig(), interval_s=10.0)
    env.process(autoscaler.run())
    env.run(until=15.0)
    executor.finished = True
    env.run(until=100.0)
    assert len(executor.calls) == 1  # only the t=10 round acted


def test_the_job_implements_both_control_loops_executor_protocols():
    """Both control loops act on the job through one surface: it has every
    member either protocol declares, the four membership bounds included."""
    job, _ = build_scenario_job(ScenarioSpec(name="unit-protocols", method="antdt-nd"))
    bounds = {"elastic_min_workers", "elastic_max_workers",
              "elastic_min_servers", "elastic_max_servers"}
    assert bounds <= set(vars(ElasticExecutor)["__annotations__"])
    for protocol in (ElasticExecutor, ActionExecutor):
        declared = set(vars(protocol).get("__annotations__", {})) | {
            name for name in vars(protocol) if not name.startswith("_")}
        missing = sorted(name for name in declared if not hasattr(job, name))
        assert not missing, f"{protocol.__name__} members missing: {missing}"


# ---------------------------------------------------------------------------
# Engine / cluster membership primitives
# ---------------------------------------------------------------------------


def test_countdown_event_abandon_neutralizes_producers():
    env = Environment()
    latch = CountdownEvent(env, 3)
    latch.count_down()
    latch.abandon()
    before = env.scheduled_count
    assert latch.count_down() == 2  # no-op: remaining untouched
    assert latch.count_down() == 2
    assert env.scheduled_count == before  # nothing entered the heap
    assert not latch.triggered
    triggered = CountdownEvent(env, 1)
    triggered.count_down()
    with pytest.raises(RuntimeError):
        triggered.abandon()  # cannot retract a published completion


def _worker_spec(name):
    return NodeSpec(name=name, role=NodeRole.WORKER, device=CPU_WORKER_16C)


def test_cluster_add_and_remove_node():
    from repro.sim.cluster import Cluster

    cluster = Cluster("c", [_worker_spec("worker-0"), _worker_spec("worker-1")])
    node = cluster.add_node(_worker_spec("worker-2"))
    assert node.status is NodeStatus.PENDING
    assert not node.is_running
    assert cluster.is_known("worker-2") and len(cluster) == 3
    with pytest.raises(ValueError):
        cluster.add_node(_worker_spec("worker-2"))  # duplicate
    node.complete_join()
    assert node.is_running
    removed = cluster.remove_node("worker-2")
    assert removed.status is NodeStatus.LEFT
    assert "worker-2" not in cluster
    assert cluster.is_known("worker-2")  # names are never reused
    assert [n.name for n in cluster.departed] == ["worker-2"]
    with pytest.raises(ValueError):
        cluster.add_node(_worker_spec("worker-2"))  # still taken


def test_scheduler_provision_rides_the_pending_queue():
    from repro.sim.cluster import Cluster
    from repro.sim.scheduler import ClusterScheduler, PendingTimeModel

    env = Environment()
    cluster = Cluster("c", [_worker_spec("worker-0")])
    scheduler = ClusterScheduler(
        env, cluster, pending_model=PendingTimeModel(idle_pending_time=30.0),
        node_init_time=60.0)
    node = cluster.add_node(_worker_spec("worker-1"))
    env.process(scheduler.provision(node))
    env.run(until=89.0)
    assert node.status is NodeStatus.PENDING
    env.run(until=91.0)
    assert node.is_running
    assert scheduler.provision_log == [(0.0, "worker-1", 90.0)]


# ---------------------------------------------------------------------------
# Shard accounting
# ---------------------------------------------------------------------------


def test_shard_accounting_balances_through_dispatch_and_failover():
    dds = StatefulDDS(num_samples=1000, global_batch_size=100,
                      batches_per_shard=2, epochs=2)
    assert dds.shard_accounting()["conserved"]
    first = dds.next_range("w0", 150)
    dds.next_range("w1", 100)
    accounting = dds.shard_accounting()
    assert accounting["conserved"]
    assert accounting["in_flight"] == 250
    dds.mark_done("w0", first)
    accounting = dds.shard_accounting()
    assert accounting["conserved"] and accounting["confirmed"] == 150
    # Failover requeues w1's in-flight work without losing a sample.
    dds.on_worker_failover("w1")
    accounting = dds.shard_accounting()
    assert accounting["conserved"] and accounting["in_flight"] == 0
    ledger = audit_allocator(dds, where="unit test")
    assert ledger.confirmed == 150
    assert ledger.total_samples == 2000


def test_audit_allocator_raises_on_imbalance():
    dds = StatefulDDS(num_samples=100, global_batch_size=10,
                      batches_per_shard=1)
    sample_range = dds.next_range("w0", 10)
    dds.mark_done("w0", sample_range)
    # Corrupt the ledger deliberately: one confirmed sample vanishes.
    dds._consumed["w0"] -= 1
    with pytest.raises(ShardConservationError, match="unit-corruption"):
        audit_allocator(dds, where="unit-corruption")


def test_verify_exactly_once_requires_coverage():
    dds = StatefulDDS(num_samples=10, global_batch_size=5,
                      batches_per_shard=1, track_coverage=False)
    with pytest.raises(ValueError):
        verify_exactly_once(dds)


# ---------------------------------------------------------------------------
# PS job: elastic execution
# ---------------------------------------------------------------------------


def _elastic_spec(**kwargs):
    defaults = dict(name="unit-elastic", method="bsp", seed=3, iterations=30)
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def test_scale_out_joins_and_participates():
    spec = _elastic_spec(elastic=ElasticSpec(events=(
        ScaleEvent(time_s=15.0, action="out", count=2),)))
    result = simulate_spec(spec)
    assert result.run.completed
    elastic = result.fingerprint["elastic"]
    assert elastic["joined"] == 2 and elastic["left"] == 0
    # The joined workers actually trained (they appear in the per-worker
    # digests with non-zero iterations).
    workers = result.fingerprint["workers"]
    assert workers["worker-6"]["iterations"] > 0
    assert workers["worker-7"]["iterations"] > 0
    # Membership bookkeeping: consumed samples include the new workers.
    consumed = result.run.consumed_per_worker
    assert consumed.get("worker-6", 0) > 0


def test_scale_cycle_is_exactly_once(tmp_path):
    """Acceptance: a ScaleOut -> ScaleIn cycle loses and duplicates nothing."""
    spec = _elastic_spec(elastic=ElasticSpec(events=(
        ScaleEvent(time_s=10.0, action="out", count=2),
        ScaleEvent(time_s=30.0, action="in", count=2),)))
    job, _ = build_scenario_job(spec, track_coverage=True)
    result = job.run()
    assert result.completed
    ledger = audit_allocator(job.allocator, where="after cycle")
    assert ledger.confirmed == ledger.total_samples
    summary = verify_exactly_once(job.allocator)
    assert summary["missed"] == 0 and summary["duplicated"] == 0
    left = [event for event in result.membership_events if event.kind == "left"]
    assert len(left) == 2


def test_scale_in_respects_min_workers_floor():
    spec = _elastic_spec(elastic=ElasticSpec(
        events=(ScaleEvent(time_s=10.0, action="in", count=5),),
        min_workers=4))
    job, _ = build_scenario_job(spec)
    result = job.run()
    assert result.completed
    left = [event for event in result.membership_events if event.kind == "left"]
    assert len(left) == 2  # 6 workers, floor at 4


def test_same_instant_scale_ins_cannot_breach_the_floor():
    """Regression: two scale-in requests landing at the same simulation time
    must not overshoot — a granted-but-still-draining worker counts against
    the min_workers floor even before its interrupt is processed."""
    spec = _elastic_spec(elastic=ElasticSpec(
        events=(ScaleEvent(time_s=10.0, action="in", nodes=("worker-5",)),
                ScaleEvent(time_s=10.0, action="in", nodes=("worker-4",))),
        min_workers=5))
    job, _ = build_scenario_job(spec)
    result = job.run()
    assert result.completed
    left = [event for event in result.membership_events if event.kind == "left"]
    assert len(left) == 1  # the second same-instant request was refused


def test_scale_out_respects_max_workers_cap():
    spec = _elastic_spec(elastic=ElasticSpec(
        events=(ScaleEvent(time_s=10.0, action="out", count=5),),
        max_workers=8))
    job, _ = build_scenario_job(spec)
    result = job.run()
    requested = [event for event in result.membership_events
                 if event.kind == "join_requested"]
    assert len(requested) == 2  # 6 active, cap at 8


def test_scale_requests_refused_on_static_partition():
    job, _ = build_scenario_job(ScenarioSpec(name="unit-static-partition", method="asp"))
    assert job.request_scale_out(2, reason="test") == []


def test_scale_in_unknown_node_is_refused():
    spec = _elastic_spec(elastic=ElasticSpec(events=(
        ScaleEvent(time_s=10.0, action="in", nodes=("worker-99",)),)))
    job, _ = build_scenario_job(spec)
    result = job.run()
    assert result.completed
    assert not [event for event in result.membership_events
                if event.kind == "left"]
    # The refusal is on the record, not silent.
    assert [(tag, detail) for _, _, tag, detail
            in result.metrics.events("scale_skipped")] == [("scale_in", "granted 0/1")]


def test_departed_worker_restart_counts_survive():
    """A node that restarts and later departs keeps its restart history."""
    from repro.scenarios import FailureEvent, FailureTraceSpec
    from repro.sim.failures import ErrorCode

    spec = _elastic_spec(
        failures=FailureTraceSpec(events=(
            FailureEvent(time_s=12.0, node="worker-2",
                         code=ErrorCode.JOB_EVICTION.value),)),
        elastic=ElasticSpec(events=(
            ScaleEvent(time_s=40.0, action="in", nodes=("worker-2",)),)),
    )
    result = simulate_spec(spec)
    assert result.run.completed
    assert result.run.restarts_per_node.get("worker-2", 0) == 1
    assert result.fingerprint["restarts"].get("worker-2") == 1


def test_dropped_iterations_count_departed_workers():
    """Backup-worker drops of a worker that later departs stay in the run total."""
    from repro.experiments.stragglers import worker_scenario

    spec = ScenarioSpec(
        name="unit-drops-departed", method="backup-workers", seed=4,
        topology=TopologySpec(dedicated=False),
        stragglers=worker_scenario(0.8),
        elastic=ElasticSpec(events=(
            ScaleEvent(time_s=60.0, action="in", nodes=("worker-5",)),)))
    job, _ = build_scenario_job(spec)
    run = job.run()
    assert "worker-5" in job.membership.nodes("left")
    departed = next(worker for worker in job.workers if worker.name == "worker-5")
    assert departed.dropped_iterations == 7
    assert run.dropped_iterations == sum(
        worker.dropped_iterations for worker in job.workers) == 84


# ---------------------------------------------------------------------------
# Stale-event regression: node removal mid-step
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("coalesce", [True, False])
def test_node_removal_mid_step_leaves_no_stale_events(monkeypatch, coalesce):
    """Satellite regression: removing a node mid-step must cancel/neutralize
    its in-flight events — queued pushes purged, ack latch abandoned, no
    observation of the departed worker after its departure."""
    from repro.experiments.stragglers import server_scenario

    abandoned = []
    abandon = CountdownEvent.abandon

    def recording(latch):
        abandoned.append(latch)
        abandon(latch)

    monkeypatch.setattr(CountdownEvent, "abandon", recording)
    # A contended server backs its queue up, and AntDT-ND kill-restarts it:
    # pushes wait at the relaunching server, so even with coalescing (where
    # a push to an idle server arms its latch at once) the retired worker
    # soon has queued (unhandled) pushes and a pending ack latch.
    spec = _elastic_spec(
        method="antdt-nd",
        topology=TopologySpec(dedicated=False),
        stragglers=server_scenario(0.8),
        iterations=40,
    )
    job, _ = build_scenario_job(spec, track_coverage=True, coalesce=coalesce)
    env = job.env
    job.start()
    env.run(until=30.0)
    target = job.workers[2]
    # Step on until the worker waits on a latch that has not fired yet.
    for _ in range(10_000):
        latch = target._pending_acks
        if latch is not None and not latch.triggered:
            break
        env.step()
    assert latch is not None and not latch.triggered
    departure_time = env.now
    assert job.request_scale_in([target.name], reason="regression") == [target.name]
    env.run(until=departure_time + 1.0)  # let the urgent interrupt and the drain process
    # The node is gone from the active membership for good.
    assert target.name not in job.cluster
    assert target.name in [node.name for node in job.cluster.departed]
    assert not target.process.is_alive
    # No server holds a queued push of the departed worker.
    for server in job.servers:
        assert server.discard_requests_from(target.name) == 0
    # Its in-flight ack latch was neutralized, not left to fire later.
    assert abandoned == [latch]
    remaining = latch.remaining
    assert remaining > 0
    assert latch.count_down() == remaining  # a no-op: abandoned
    # Run to completion: the remaining fleet finishes the workload.
    deadline = env.timeout(job.config.max_duration_s)
    env.run(until=env.any_of([job._completion_event, deadline]))
    assert job.completed
    # The abandoned latch never fired, even after the whole run drained.
    assert not latch.triggered and latch.remaining == remaining
    # No observation of the departed worker after departure: its raw
    # iteration series stops at (or before) the removal.
    series = job.metrics.series("bpt", tag=target.name)
    assert all(time <= departure_time for time in series.times())
    # And the data it dropped was retrained by someone else, exactly once.
    summary = verify_exactly_once(job.allocator)
    assert summary["missed"] == 0 and summary["duplicated"] == 0


# ---------------------------------------------------------------------------
# Elastic AllReduce
# ---------------------------------------------------------------------------


def test_elastic_allreduce_phases_and_speedup():
    from repro.allreduce.job import AllReduceJob
    from repro.allreduce.strategies import even_assignment
    from repro.elastic import ElasticAllReduceJob, MembershipChange
    from repro.experiments.workloads import make_gpu_groups
    from repro.ml.data.imagenet import ImageWorkload
    from repro.ml.models.cost_models import MOBILENET_V1

    groups = make_gpu_groups(num_v100=4, num_p100=0)
    job = AllReduceJob(groups=groups, model=MOBILENET_V1,
                       workload=ImageWorkload(name="mini", num_samples=100_000),
                       global_batch_size=512)
    assignments = even_assignment(groups, 512)
    fixed = job.run(assignments, strategy="ddp")
    elastic = ElasticAllReduceJob(job)
    result = elastic.run(assignments, changes=(
        MembershipChange(after_samples=25_000, group_counts={"V100": 8},
                         rendezvous_cost_s=5.0),))
    assert len(result.phases) == 2
    assert result.phases[0].group_counts == {"V100": 4}
    assert result.phases[1].group_counts == {"V100": 8}
    assert result.samples_trained >= 100_000
    assert result.jct < fixed.jct  # doubling capacity mid-run helps
    # Deterministic: same schedule, same result.
    again = elastic.run(assignments, changes=(
        MembershipChange(after_samples=25_000, group_counts={"V100": 8},
                         rendezvous_cost_s=5.0),))
    assert again.jct == result.jct
    with pytest.raises(ValueError):
        elastic.run(assignments, changes=(
            MembershipChange(after_samples=50_000, group_counts={"V100": 8}),
            MembershipChange(after_samples=25_000, group_counts={"V100": 4})))


@pytest.mark.parametrize("num_changes", [0, 1, 2])
@pytest.mark.parametrize("strategy", ["antdt_dd", "even"])
def test_elastic_allreduce_phases_replay_the_fixed_membership_job(strategy, num_changes):
    from dataclasses import replace

    from repro.allreduce.job import AllReduceJob
    from repro.allreduce.strategies import antdt_dd_assignment, even_assignment
    from repro.elastic import ElasticAllReduceJob, MembershipChange
    from repro.experiments.workloads import make_gpu_groups
    from repro.ml.data.imagenet import mini_imagenet_epoch
    from repro.ml.models.cost_models import MOBILENET_V1

    def closed_form(groups):
        return AllReduceJob(groups=groups, model=MOBILENET_V1, global_batch_size=512,
                            workload=mini_imagenet_epoch(num_samples=40_000))

    groups = make_gpu_groups(num_v100=4, num_p100=4)
    assignments = (antdt_dd_assignment(groups, 512, MOBILENET_V1.compute_cost)
                   if strategy == "antdt_dd" else even_assignment(groups, 512))
    changes = [MembershipChange(after_samples=8_000, group_counts={"P100": 2}),
               MembershipChange(after_samples=20_000, group_counts={"V100": 6, "P100": 0},
                                rendezvous_cost_s=12.0)][:num_changes]
    result = ElasticAllReduceJob(closed_form(groups)).run(assignments, changes=changes)
    assert len(result.phases) == num_changes + 1 and result.samples_trained == 40_000
    # Each phase is the fixed-membership closed form; rendezvous costs sit between.
    elapsed = 0.0
    for phase, change in zip(result.phases, [*changes, None]):
        scaled = [replace(group, count=phase.group_counts[group.name])
                  for group in groups if phase.group_counts[group.name] > 0]
        present = {group.name for group in scaled}
        fixed = closed_form(scaled).run([a for a in assignments if a.group in present])
        assert phase.sync_period_s == fixed.sync_period_s
        assert phase.samples_per_sync == fixed.samples_per_sync
        assert phase.duration_s == phase.num_syncs * fixed.sync_period_s
        elapsed += phase.duration_s
        elapsed += change.rendezvous_cost_s if change else 0.0
    assert result.jct == elapsed


# ---------------------------------------------------------------------------
# Membership log
# ---------------------------------------------------------------------------


def test_membership_log_bookkeeping():
    log = MembershipLog()
    assert not log
    log.record(1.0, "join_requested", "worker-6")
    log.record(2.0, "joined", "worker-6")
    log.record(3.0, "left", "worker-6")
    assert len(log) == 3
    assert log.counts() == {"join_requested": 1, "joined": 1, "left": 1}
    assert log.nodes("left") == ["worker-6"]
    with pytest.raises(ValueError):
        log.record(4.0, "teleported", "worker-6")
