"""Unit tests for elastic parameter-server membership.

Covers the server-tier action set, the rendezvous ServerShardMap and its
coverage audit, the migration cost model, the ServerElasticSpec serialization
(and the spec keys of registry specs rebuilt from their dicts), the server
autoscaler policies, the PS job's server scale-out/scale-in execution with
shard-accounting and exactly-once proofs, the busy-cluster gate for server
capacity, the autoscaler cooldown-on-denial satellite, and the headline
regression: a server kill-restart racing an elastic scale-in drain must not
resurrect a purged push request.
"""

import pytest

from repro.core.actions import ActionType, ScaleInServers, ScaleOutServers
from repro.core.monitor import Monitor
from repro.elastic import (
    Autoscaler,
    AutoscalerConfig,
    ContendedServerPolicy,
    ElasticContext,
    ElasticSpec,
    MigrationCostModel,
    ScaleEvent,
    ServerElasticSpec,
    ServerQueueDepthPolicy,
    ServerShardMap,
    ShardConservationError,
    audit_allocator,
    make_server_policy,
    verify_exactly_once,
    verify_shard_coverage,
)
from repro.experiments.stragglers import server_scenario
from repro.orchestrator import simulate_spec
from repro.orchestrator.grid import expand
from repro.orchestrator.hashing import spec_key
from repro.psarch.config import PSJobConfig
from repro.psarch.server import ParameterServer
from repro.scenarios import ScenarioSpec, TopologySpec, build_scenario_job
from repro.scenarios.registry import all_scenarios
from repro.sim.cluster import Cluster, NodeRole, NodeSpec
from repro.sim.engine import Environment
from repro.sim.hardware import CPU_SERVER_4C
from repro.sim.metrics import MetricsRecorder
from repro.sim.scheduler import ClusterScheduler, PendingTimeModel


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def test_server_scale_actions_validate_and_describe():
    out = ScaleOutServers(num_servers=2)
    assert out.action_type is ActionType.SCALE_OUT_SERVERS
    assert out.describe() == "SCALE_OUT_SERVERS(+2)"
    scale_in = ScaleInServers(node_names=("server-2",))
    assert scale_in.action_type is ActionType.SCALE_IN_SERVERS
    assert "server-2" in scale_in.describe()
    with pytest.raises(ValueError):
        ScaleOutServers(num_servers=0)
    with pytest.raises(ValueError):
        ScaleInServers(node_names=())
    with pytest.raises(ValueError):
        ScaleInServers(node_names=("a", "a"))


# ---------------------------------------------------------------------------
# ServerShardMap
# ---------------------------------------------------------------------------


def test_shard_map_covers_every_shard_exactly_once():
    shard_map = ServerShardMap(members=["server-0", "server-1", "server-2"],
                               num_shards=64)
    summary = verify_shard_coverage(shard_map, ["server-0", "server-1", "server-2"])
    assert summary["shards"] == 64 and summary["servers"] == 3
    assert sum(shard_map.shard_counts().values()) == 64
    # Rendezvous spreads the shards reasonably (no member starves).
    assert summary["min_per_server"] > 0


def test_shard_map_join_moves_only_the_newcomers_shards():
    shard_map = ServerShardMap(members=["server-0", "server-1"], num_shards=64)
    before = {shard: shard_map.owner_of(shard) for shard in range(64)}
    moved = shard_map.add_member("server-2")
    assert moved, "the newcomer must win some shards"
    for shard in range(64):
        if shard in moved:
            assert shard_map.owner_of(shard) == "server-2"
        else:
            # Minimal disruption: every other shard keeps its owner.
            assert shard_map.owner_of(shard) == before[shard]


def test_shard_map_leave_moves_only_the_leavers_shards():
    shard_map = ServerShardMap(members=["server-0", "server-1", "server-2"],
                               num_shards=64)
    owned = set(shard_map.assignment()["server-1"])
    before = {shard: shard_map.owner_of(shard) for shard in range(64)}
    moved = shard_map.remove_member("server-1")
    assert set(moved) == owned
    for shard in range(64):
        if shard in owned:
            assert shard_map.owner_of(shard) in ("server-0", "server-2")
        else:
            assert shard_map.owner_of(shard) == before[shard]
    verify_shard_coverage(shard_map, ["server-0", "server-2"])


def test_shard_map_is_a_pure_function_of_the_membership():
    one = ServerShardMap(members=["a", "b", "c"], num_shards=32)
    # A different join order converges to the same assignment (and digest).
    other = ServerShardMap(members=["c", "a"], num_shards=32)
    other.add_member("b")
    assert one.digest() == other.digest()
    assert one.assignment() == other.assignment()


def test_shard_map_validation_and_coverage_errors():
    with pytest.raises(ValueError):
        ServerShardMap(num_shards=0)
    shard_map = ServerShardMap(members=["s0"], num_shards=8)
    with pytest.raises(ValueError):
        shard_map.add_member("s0")  # duplicate
    with pytest.raises(ValueError):
        shard_map.remove_member("nope")
    with pytest.raises(KeyError):
        shard_map.owner_of(99)
    # An owner that is not an *active* server fails the audit.
    with pytest.raises(ShardConservationError, match="inactive"):
        verify_shard_coverage(shard_map, ["someone-else"])
    # An empty map is all orphans.
    shard_map.remove_member("s0")
    with pytest.raises(ShardConservationError, match="no owning server"):
        verify_shard_coverage(shard_map, [])


def test_migration_cost_model():
    model = MigrationCostModel(param_bytes=1e9, per_byte_cost_s=1e-9,
                               base_cost_s=0.5)
    assert model.handoff_time(0, 64) == 0.0
    # Half the shards move: half the parameter volume plus the constant.
    assert model.handoff_time(32, 64) == pytest.approx(0.5 + 0.5)
    assert model.handoff_time(64, 64) == pytest.approx(0.5 + 1.0)
    with pytest.raises(ValueError):
        MigrationCostModel(param_bytes=-1.0)


# ---------------------------------------------------------------------------
# ServerElasticSpec serialization and spec keys
# ---------------------------------------------------------------------------


def test_server_elastic_spec_roundtrips_losslessly():
    spec = ServerElasticSpec(
        events=(ScaleEvent(time_s=10.0, action="out", count=1),
                ScaleEvent(time_s=60.0, action="in", nodes=("server-3",))),
        policy="server-queue-depth",
        policy_params=(("scale_out_depth", 3.0),),
        min_servers=2,
        max_servers=6,
    )
    assert ServerElasticSpec.from_dict(spec.to_dict()) == spec
    assert bool(spec)
    assert not ServerElasticSpec()


def test_server_elastic_spec_validation():
    with pytest.raises(ValueError):
        ServerElasticSpec(policy="no-such-policy")
    with pytest.raises(ValueError):
        ServerElasticSpec(policy_params=(("x", 1),))
    with pytest.raises(ValueError):
        ServerElasticSpec(min_servers=0)
    with pytest.raises(ValueError):
        ServerElasticSpec(min_servers=4, max_servers=2)


def test_registry_spec_keys_survive_a_dict_round_trip():
    """Every registry spec rebuilt from its dict form hashes to the same
    result-store key."""
    for spec in all_scenarios():
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert spec_key(rebuilt) == spec_key(spec)


# ---------------------------------------------------------------------------
# Server autoscaler policies
# ---------------------------------------------------------------------------


def _server_context(**overrides):
    defaults = dict(
        now=100.0,
        active_workers=["worker-0", "worker-1"],
        pending_workers=0,
        min_workers=1,
        max_workers=None,
        cluster_busy=False,
        pending_time_s=5.0,
        remaining_samples=100_000,
        active_servers=["server-0", "server-1", "server-2"],
        pending_servers=0,
        min_servers=1,
        max_servers=5,
        server_queue_depths={"server-0": 0, "server-1": 0, "server-2": 0},
        server_long_bpts={"server-0": 0.2, "server-1": 0.2, "server-2": 0.2},
    )
    defaults.update(overrides)
    return ElasticContext(**defaults)


def test_queue_depth_policy_scales_out_on_the_deepest_queue():
    policy = ServerQueueDepthPolicy(scale_out_depth=3.0, scale_in_depth=0.25)
    # One hot server is enough — a mean would hide it.
    hot = {"server-0": 0, "server-1": 0, "server-2": 5}
    actions = policy.decide(_server_context(server_queue_depths=hot))
    assert len(actions) == 1 and isinstance(actions[0], ScaleOutServers)
    # Busy cluster gates the request; no headroom refuses it.
    assert policy.decide(_server_context(server_queue_depths=hot,
                                         cluster_busy=True)) == []
    assert policy.decide(_server_context(server_queue_depths=hot,
                                         pending_servers=2)) == []


def test_queue_depth_policy_scales_in_on_drained_queues():
    policy = ServerQueueDepthPolicy(scale_out_depth=3.0, scale_in_depth=0.5)
    actions = policy.decide(_server_context())
    assert len(actions) == 1 and isinstance(actions[0], ScaleInServers)
    assert actions[0].node_names == ("server-2",)  # the newest
    # The floor blocks the retirement.
    assert policy.decide(_server_context(min_servers=3)) == []
    # Active servers missing from the depth snapshot are *drained* (depth 0),
    # not excluded: an empty snapshot over a live tier means every queue is
    # empty, so the tier scales in.  (The old behaviour silently dropped
    # absent servers from the mean, skewing it upward and delaying scale-in.)
    drained = policy.decide(_server_context(server_queue_depths={}))
    assert len(drained) == 1 and isinstance(drained[0], ScaleInServers)
    # A server that never enqueued must not inflate the mean: two absent
    # (drained) servers against one shallow queue still average under the
    # threshold.
    skew = policy.decide(_server_context(server_queue_depths={"server-0": 1}))
    assert len(skew) == 1 and isinstance(skew[0], ScaleInServers)
    # With no active servers at all there is still no decision.
    assert policy.decide(_server_context(active_servers=[],
                                         server_queue_depths={})) == []
    with pytest.raises(ValueError):
        ServerQueueDepthPolicy(scale_out_depth=1.0, scale_in_depth=2.0)


def test_contended_server_policy_retires_and_replaces():
    policy = ContendedServerPolicy(replace=True)
    bpts = {"server-0": 0.2, "server-1": 0.2, "server-2": 1.0}
    actions = policy.decide(_server_context(server_long_bpts=bpts))
    assert [type(action) for action in actions] == [ScaleInServers, ScaleOutServers]
    assert actions[0].node_names == ("server-2",)
    # The pending-time forecast gates the replacement, not the retirement.
    late = policy.decide(_server_context(server_long_bpts=bpts,
                                         pending_time_s=1200.0))
    assert [type(action) for action in late] == [ScaleInServers]
    # No contended server -> no action; floor blocks the retirement.
    assert policy.decide(_server_context()) == []
    assert policy.decide(_server_context(server_long_bpts=bpts,
                                         min_servers=3)) == []


def test_make_server_policy_registry():
    assert isinstance(make_server_policy("server-queue-depth"),
                      ServerQueueDepthPolicy)
    assert isinstance(make_server_policy("contended-server", replace=False),
                      ContendedServerPolicy)
    with pytest.raises(KeyError):
        make_server_policy("utilization")  # worker policies are not server policies


# ---------------------------------------------------------------------------
# Autoscaler: server dispatch + cooldown-on-denial satellite
# ---------------------------------------------------------------------------


class _DenyingExecutor:
    """ElasticExecutor double that refuses every scaling request."""

    def __init__(self):
        self.finished = False
        self.requests = 0

    def active_worker_names(self):
        return ["worker-0", "worker-1"]

    def pending_worker_count(self):
        return 0

    def remaining_samples(self):
        return 1_000_000

    def request_scale_out(self, count, reason):
        self.requests += 1
        return []  # clamped to zero names (e.g. at max_workers)

    def request_scale_in(self, node_names, reason):
        self.requests += 1
        return []

    def active_server_names(self):
        return []

    def pending_server_count(self):
        return 0

    def server_queue_depths(self):
        return {}

    def server_shard_weights(self):
        return {}

    def serving_slo_snapshot(self):
        return None

    def request_server_scale_out(self, count, reason):
        self.requests += 1
        return []

    def request_server_scale_in(self, node_names, reason):
        self.requests += 1
        return []


class _AlwaysOut:
    name = "always-out"

    def decide(self, context):
        from repro.core.actions import ScaleOut

        return [ScaleOut(num_workers=1, reason="test")]


def test_fully_denied_action_does_not_start_a_cooldown():
    """Satellite: only *granted* actions may start the cooldown — a denied
    request must not suppress the next legitimate decision."""
    env = Environment()
    executor = _DenyingExecutor()
    autoscaler = Autoscaler(
        env=env, monitor=Monitor(), policy=_AlwaysOut(), executor=executor,
        config=AutoscalerConfig(interval_s=10.0, cooldown_s=1000.0))
    env.process(autoscaler.run())
    env.run(until=45.0)
    # Four rounds (t=10..40), all denied: every round must still decide and
    # dispatch — a cooldown after a denial would have silenced rounds 2-4.
    assert executor.requests == 4
    assert autoscaler._last_scale_time is None
    assert autoscaler.granted_log == [[], [], [], []]


class _ServerOnlyExecutor(_DenyingExecutor):
    """Executor double with a server tier, for server-policy dispatch."""

    def __init__(self):
        super().__init__()
        self.server_calls = []
        self.servers = ["server-0", "server-1"]

    def active_server_names(self):
        return list(self.servers)

    def pending_server_count(self):
        return 0

    def server_queue_depths(self):
        return {name: 9 for name in self.servers}

    def request_server_scale_out(self, count, reason):
        self.server_calls.append(("out", count))
        names = [f"server-{len(self.servers) + index}" for index in range(count)]
        self.servers.extend(names)
        return names

    def request_server_scale_in(self, node_names, reason):
        self.server_calls.append(("in", tuple(node_names)))
        return []


def test_build_context_reads_the_server_tier_from_the_executor():
    executor = _ServerOnlyExecutor()
    executor.server_shard_weights = lambda: {"server-0": 2.0, "server-1": 1.0}
    autoscaler = Autoscaler(
        env=Environment(), monitor=Monitor(), policy=None,
        server_policy=ServerQueueDepthPolicy(scale_out_depth=3.0),
        executor=executor,
        config=AutoscalerConfig(interval_s=10.0, min_servers=2, max_servers=4))
    context = autoscaler.build_context()
    assert context.active_servers == ["server-0", "server-1"]
    assert (context.pending_servers, context.min_servers,
            context.max_servers) == (0, 2, 4)
    assert context.server_queue_depths == {"server-0": 9, "server-1": 9}
    assert context.server_shard_weights == {"server-0": 2.0, "server-1": 1.0}
    assert context.serving is None


def test_build_context_requires_the_whole_executor_surface():
    class _WorkerTierOnly:
        finished = False

        def active_worker_names(self):
            return ["worker-0"]

        def pending_worker_count(self):
            return 0

        def remaining_samples(self):
            return 1

    autoscaler = Autoscaler(
        env=Environment(), monitor=Monitor(), policy=None,
        server_policy=ServerQueueDepthPolicy(scale_out_depth=3.0),
        executor=_WorkerTierOnly(), config=AutoscalerConfig(interval_s=10.0))
    # No fallback reads a missing server tier as an idle one.
    with pytest.raises(AttributeError, match="active_server_names"):
        autoscaler.build_context()


def test_autoscaler_dispatches_server_policy_actions():
    env = Environment()
    executor = _ServerOnlyExecutor()
    autoscaler = Autoscaler(
        env=env, monitor=Monitor(), policy=None,
        server_policy=ServerQueueDepthPolicy(scale_out_depth=3.0),
        executor=executor,
        config=AutoscalerConfig(interval_s=10.0, max_servers=4))
    env.process(autoscaler.run())
    env.run(until=25.0)
    assert executor.server_calls == [("out", 1), ("out", 1)]
    with pytest.raises(ValueError):
        Autoscaler(env=env, monitor=Monitor(), policy=None, executor=executor)


# ---------------------------------------------------------------------------
# Headline bugfix: kill-restart racing a scale-in drain
# ---------------------------------------------------------------------------


def _standalone_server(draining):
    env = Environment()
    node_spec = NodeSpec(name="server-0", role=NodeRole.SERVER,
                         device=CPU_SERVER_4C)
    cluster = Cluster("c", [node_spec])
    scheduler = ClusterScheduler(
        env, cluster, pending_model=PendingTimeModel(idle_pending_time=5.0),
        node_init_time=5.0)
    metrics = MetricsRecorder()
    server = ParameterServer(
        env=env, node=cluster.get("server-0"),
        config=PSJobConfig(server_recovery_time_s=1.0), scheduler=scheduler,
        metrics=metrics, delay_fraction_provider=lambda: 1.0,
        requeue_filter=lambda worker: worker not in draining)
    return env, server


def test_kill_restart_mid_drain_does_not_resurrect_purged_push():
    """Headline regression: the server is killed while handling a request of
    a worker whose elastic drain already purged it; the old Interrupt handler
    unconditionally ``put_left`` the in-flight request, resurrecting it."""
    draining = set()
    env, server = _standalone_server(draining)
    server.start()
    # ~1s handling each (1e9 bytes at 1e-9 s/byte); the draining worker's
    # request is handled first.
    done_gone = server.submit("worker-gone", 1e9)
    done_live = server.submit("worker-live", 1e9)
    env.run(until=0.5)  # mid-handling of worker-gone's push
    # The elastic drain of worker-gone: queued pushes purged, then the
    # server is killed before it finishes the in-flight request.
    draining.add("worker-gone")
    assert server.discard_requests_from("worker-gone") == 0  # it is in flight
    assert server.request_kill_restart()
    env.run()
    # The purged request never returned: not handled, never acknowledged.
    assert not done_gone.triggered
    assert done_live.triggered
    assert len(server.metrics.series("server_bpt", tag="server-0")) == 1
    assert all(request.worker != "worker-gone" for request in server.queue.items)


def test_kill_restart_still_requeues_live_workers_requests():
    """The fix must not over-purge: an in-flight request of a healthy worker
    still rides the requeue so nobody waits forever."""
    env, server = _standalone_server(draining=set())
    server.start()
    done_live = server.submit("worker-live", 1e9)
    env.run(until=0.5)
    assert server.request_kill_restart()
    env.run()
    assert done_live.triggered
    assert len(server.metrics.series("server_bpt", tag="server-0")) == 1


# ---------------------------------------------------------------------------
# PS job: elastic server execution
# ---------------------------------------------------------------------------


def _server_spec(**kwargs):
    defaults = dict(name="unit-elastic-server", method="bsp", seed=5,
                    iterations=30)
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def test_server_scale_out_joins_and_serves():
    spec = _server_spec(elastic=ElasticSpec(servers=ServerElasticSpec(events=(
        ScaleEvent(time_s=15.0, action="out", count=1),))))
    result = simulate_spec(spec)
    assert result.run.completed
    servers = result.fingerprint["elastic"]["servers"]
    assert servers["joined"] == 1 and servers["left"] == 0
    resharding = result.fingerprint["elastic"]["resharding"]
    assert resharding["total_moved_shards"] > 0
    assert resharding["shard_map_digest"]
    # The joined server actually served pushes.
    series = result.run.metrics.series("server_bpt", tag="server-3")
    assert len(series) > 0


def test_server_busy_gate_denies_the_join():
    spec = _server_spec(
        method="antdt-nd",
        topology=TopologySpec(dedicated=False, cluster_busy=True),
        elastic=ElasticSpec(servers=ServerElasticSpec(events=(
            ScaleEvent(time_s=10.0, action="out", count=1),))))
    result = simulate_spec(spec)
    assert result.run.completed
    servers = result.fingerprint["elastic"]["servers"]
    assert servers["unplaced"] == 1 and servers["joined"] == 0
    # Capacity that never arrived re-partitioned nothing.
    assert result.fingerprint["elastic"]["resharding"]["total_moved_shards"] == 0


def test_server_scale_in_respects_floor_and_same_instant_requests():
    job, _ = build_scenario_job(_server_spec())
    job.configure_elastic_servers(min_servers=2)
    job.start()
    job.env.run(until=10.0)
    # 3 servers, floor at 2: the first drain is granted, the second —
    # requested at the same instant — must be refused.
    assert job.request_server_scale_in(["server-2"]) == ["server-2"]
    assert job.request_server_scale_in(["server-1"]) == []
    # Unknown names and workers are refused outright.
    assert job.request_server_scale_in(["server-99"]) == []
    assert job.request_server_scale_in(["worker-0"]) == []
    deadline = job.env.timeout(job.config.max_duration_s)
    job.env.run(until=job.env.any_of([job._completion_event, deadline]))
    assert job.completed
    left = job.server_membership.nodes("left")
    assert left == ["server-2"]


def test_server_scale_out_respects_cap():
    spec = _server_spec(elastic=ElasticSpec(servers=ServerElasticSpec(
        events=(ScaleEvent(time_s=10.0, action="out", count=5),),
        max_servers=4)))
    result = simulate_spec(spec)
    servers = result.fingerprint["elastic"]["servers"]
    # 3 servers, cap at 4: only one join may be requested.
    assert servers["joined"] + servers["unplaced"] == 1


def test_server_scale_out_at_cap_is_refused():
    spec = _server_spec(elastic=ElasticSpec(servers=ServerElasticSpec(
        events=(ScaleEvent(time_s=10.0, action="out", count=1),),
        max_servers=3)))
    job, _ = build_scenario_job(spec)
    result = job.run()
    assert result.completed
    # 3 servers, cap at 3: no join is even requested.
    assert not result.server_membership_events
    # The refusal is on the record, not silent.
    assert [(tag, detail) for _, _, tag, detail
            in result.metrics.events("scale_skipped")] == [
        ("server_scale_out", "granted 0/1")]


def test_mid_handoff_join_has_not_mutated_the_shard_map():
    """Review regression: the shard map is only mutated once the migration
    handoff completed — a join abandoned mid-handoff (the job finished
    first) must leave no ghost owner behind, so the coverage audit holds at
    every instant of the join, not just after it."""
    spec = _server_spec(elastic=ElasticSpec(servers=ServerElasticSpec(events=(
        ScaleEvent(time_s=10.0, action="out", count=1),))), iterations=60)
    job, _ = build_scenario_job(spec)
    env = job.env
    job.start()
    # The pod is placed after the scheduler delay; stop mid-handoff (the
    # migration cost model's base constant alone exceeds the 0.1s margin).
    env.run(until=10.0 + job.scheduler.restart_delay() + 0.1)
    assert job.cluster.get("server-3").is_running  # placed...
    assert "server-3" not in job.shard_map         # ...but not yet an owner
    verify_shard_coverage(job.shard_map, job.active_server_names())
    deadline = env.timeout(job.config.max_duration_s)
    env.run(until=env.any_of([job._completion_event, deadline]))
    assert job.completed
    # Once the handoff finished the join committed normally.
    assert "server-3" in job.shard_map
    verify_shard_coverage(job.shard_map, job.active_server_names())


def test_shard_accounting_survives_server_retired_mid_iteration():
    """Satellite: retiring a server whose queue holds pushes from multiple
    workers must keep the DDS ledger conserved at every instant and the run
    exactly-once overall."""
    # Native BSP: no controller mitigation, so the contended server keeps
    # its backlog instead of being kill-restarted from under the test.
    spec = _server_spec(
        method="bsp",
        topology=TopologySpec(dedicated=False),
        stragglers=server_scenario(0.8),
        iterations=40,
    )
    job, _ = build_scenario_job(spec, track_coverage=True)
    env = job.env
    job.start()
    env.run(until=30.0)
    depths = job.server_queue_depths()
    target_name = max(sorted(depths), key=lambda name: depths[name])
    target = next(server for server in job.servers if server.name == target_name)
    # A BSP worker has at most one unacknowledged push per server, so two
    # queued pushes come from two workers.
    assert target.pending_request_count() >= 2, \
        "the contended server should hold pushes from multiple workers mid-iteration"
    audit_allocator(job.allocator, where="before server retirement")
    assert job.request_server_scale_in([target_name]) == [target_name]
    audit_allocator(job.allocator, where="at server retirement")
    env.run(until=35.0)
    audit_allocator(job.allocator, where="after handoff")
    deadline = env.timeout(job.config.max_duration_s)
    env.run(until=env.any_of([job._completion_event, deadline]))
    assert job.completed
    # The retired server is gone for good; its shards moved to survivors.
    assert target_name not in job.cluster
    verify_shard_coverage(job.shard_map, job.active_server_names())
    summary = verify_exactly_once(job.allocator)
    assert summary["missed"] == 0 and summary["duplicated"] == 0


def test_elastic_server_cycle_is_exactly_once():
    """Acceptance: scale-out -> contended-server retire -> scale-in, with
    both audits (sample coverage and parameter-shard coverage) green."""
    # Native BSP keeps the contended server contended (see above).
    spec = _server_spec(
        method="bsp",
        topology=TopologySpec(dedicated=False),
        stragglers=server_scenario(0.8),
        iterations=40,
    )
    job, _ = build_scenario_job(spec, track_coverage=True)
    env = job.env
    job.start()
    env.run(until=15.0)
    assert len(job.request_server_scale_out(1, reason="cycle")) == 1
    env.run(until=40.0)
    contended = [node.name for node in job.cluster.servers
                 if node.role is NodeRole.SERVER and not node.contention.is_null]
    assert contended, "the server straggler scenario must contend a server"
    assert job.request_server_scale_in(contended[:1]) == contended[:1]
    audit_allocator(job.allocator, where="after contended retire")
    env.run(until=70.0)
    newest = job.default_server_scale_in_targets(1)
    job.request_server_scale_in(newest, reason="cycle scale-in")
    deadline = env.timeout(job.config.max_duration_s)
    env.run(until=env.any_of([job._completion_event, deadline]))
    assert job.completed
    verify_shard_coverage(job.shard_map, job.active_server_names())
    summary = verify_exactly_once(job.allocator)
    assert summary["missed"] == 0 and summary["duplicated"] == 0
    ledger = audit_allocator(job.allocator, where="after cycle")
    assert ledger.confirmed == ledger.total_samples


def test_worker_drain_racing_server_kill_stays_exactly_once():
    """Integration flavour of the headline bug: a worker drain and a server
    kill-restart land at the same instant; nothing is lost or re-trained."""
    spec = _server_spec(
        method="antdt-nd",
        topology=TopologySpec(dedicated=False),
        stragglers=server_scenario(0.8),
        iterations=40,
    )
    job, _ = build_scenario_job(spec, track_coverage=True)
    env = job.env
    job.start()
    env.run(until=30.0)
    victim = job.active_worker_names()[-1]
    assert job.request_scale_in([victim]) == [victim]
    # Kill every server at the same instant: whichever was mid-handling the
    # drained worker's push must not resurrect it on relaunch.
    for server in list(job.servers):
        job.request_kill_restart(server.name, reason="race")
    deadline = env.timeout(job.config.max_duration_s)
    env.run(until=env.any_of([job._completion_event, deadline]))
    assert job.completed
    # No server queue ever holds the departed worker's pushes again.
    for server in job.servers:
        assert server.discard_requests_from(victim) == 0
    summary = verify_exactly_once(job.allocator)
    assert summary["missed"] == 0 and summary["duplicated"] == 0


# ---------------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------------


def test_expand_server_autoscalers_axis():
    base = ScenarioSpec(name="base", method="antdt-nd")
    variants = expand(base, server_autoscalers=("server-queue-depth",
                                                "contended-server"))
    assert [spec.name for spec in variants] == [
        "base@server_autoscaler=server-queue-depth",
        "base@server_autoscaler=contended-server",
    ]
    assert all(spec.elastic.servers.policy is not None for spec in variants)
    assert len({spec_key(spec) for spec in variants}) == 2
    # A static-allocator base cannot take the axis: the point is dropped.
    static = ScenarioSpec(name="static", method="asp")
    assert expand(static, server_autoscalers=("contended-server",)) == []
    # Composes with the worker autoscaler axis.
    both = expand(base, autoscalers=("utilization",),
                  server_autoscalers=("contended-server",))
    assert len(both) == 1
    assert both[0].elastic.policy == "utilization"
    assert both[0].elastic.servers.policy == "contended-server"
