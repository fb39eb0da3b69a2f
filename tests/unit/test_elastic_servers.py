"""Unit tests for elastic parameter-server membership.

Covers the server-tier action set, the rendezvous ServerShardMap and its
coverage audit, the migration cost model, the ServerElasticSpec serialization
(and the spec keys of registry specs rebuilt from their dicts), the server
autoscaler policies, the PS job's server scale-out/scale-in execution with
shard-accounting and exactly-once proofs, the busy-cluster gate for server
capacity, the autoscaler's cooldown on denial and its headroom with a
relaunching worker, the server's windows (no heap event of their own, a
push on the last acknowledgement joining) and the hand-offs of its own
request backlog (arrival at a parked server, a kill or scale-in after the
getter was fed, an arrival during an open window, a relaunched server's
backlog committed as one window, a contention swap re-committing a window's
tail or stepping it under a random model, ``take_backlog``), and the
headline regression: a server kill-restart racing an elastic scale-in drain
must not resurrect a purged push request.
"""

from types import SimpleNamespace

import pytest

from repro.core.actions import ActionType, ScaleInServers, ScaleOutServers
from repro.core.config import AntDTConfig
from repro.core.monitor import Monitor
from repro.elastic import (
    Autoscaler,
    ContendedServerPolicy,
    ElasticContext,
    ElasticSpec,
    MigrationCostModel,
    ScaleEvent,
    ServerElasticSpec,
    ServerQueueDepthPolicy,
    ServerShardMap,
    ShardConservationError,
    UtilizationThresholdPolicy,
    audit_allocator,
    make_server_policy,
    verify_exactly_once,
    verify_shard_coverage,
)
from repro.elastic.membership import newest
from repro.experiments.stragglers import server_scenario
from repro.obs.recorder import TraceRecorder
from repro.orchestrator import simulate_spec
from repro.orchestrator.grid import expand
from repro.orchestrator.hashing import spec_key
from repro.psarch.config import PSJobConfig
from repro.psarch.server import ParameterServer, PushRequest, ServerStateArrays
from repro.scenarios import ScenarioSpec, TopologySpec, build_scenario_job
from repro.scenarios.registry import all_scenarios
from repro.sim.cluster import Cluster, NodeRole, NodeSpec, NodeStatus
from repro.sim.contention import ConstantContention, RandomContention
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
    defaults.setdefault("committed_workers", len(defaults["active_workers"]))
    defaults.setdefault("committed_servers", len(defaults["active_servers"])
                        + defaults["pending_servers"])
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

    elastic_min_workers = 1
    elastic_max_workers = None
    elastic_min_servers = 1
    elastic_max_servers = None

    def __init__(self):
        self.finished = False
        self.requests = 0

    def active_worker_names(self):
        return ["worker-0", "worker-1"]

    def pending_worker_count(self):
        return 0

    def committed_worker_count(self):
        return len(self.active_worker_names())

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

    def committed_server_count(self):
        return len(self.active_server_names())

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
    recorder = TraceRecorder()
    autoscaler = Autoscaler(
        env=env, monitor=Monitor(), policy=_AlwaysOut(), executor=executor,
        config=AntDTConfig(), interval_s=10.0, cooldown_s=1000.0, recorder=recorder)
    env.process(autoscaler.run())
    env.run(until=45.0)
    # Four rounds (t=10..40), all denied: every round must still decide and
    # dispatch — a cooldown after a denial would have silenced rounds 2-4.
    assert executor.requests == 4
    assert autoscaler._last_scale_time is None
    assert [(decision.verdict, decision.granted)
            for decision in recorder.decisions] == [("denied", ())] * 4


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
    # The bounds a policy plans against are the executor's own.
    executor.elastic_min_servers, executor.elastic_max_servers = 2, 4
    autoscaler = Autoscaler(
        env=Environment(), monitor=Monitor(), policy=None,
        server_policy=ServerQueueDepthPolicy(scale_out_depth=3.0),
        executor=executor, config=AntDTConfig(), interval_s=10.0)
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
        elastic_min_workers = 1
        elastic_max_workers = None

        def active_worker_names(self):
            return ["worker-0"]

        def pending_worker_count(self):
            return 0

        def committed_worker_count(self):
            return 1

        def remaining_samples(self):
            return 1

    autoscaler = Autoscaler(
        env=Environment(), monitor=Monitor(), policy=None,
        server_policy=ServerQueueDepthPolicy(scale_out_depth=3.0),
        executor=_WorkerTierOnly(), config=AntDTConfig(), interval_s=10.0)
    # No fallback reads a missing server tier as an idle one.
    with pytest.raises(AttributeError, match="active_server_names"):
        autoscaler.build_context()


def test_autoscaler_dispatches_server_policy_actions():
    env = Environment()
    executor = _ServerOnlyExecutor()
    executor.elastic_max_servers = 4
    autoscaler = Autoscaler(
        env=env, monitor=Monitor(), policy=None,
        server_policy=ServerQueueDepthPolicy(scale_out_depth=3.0),
        executor=executor, config=AntDTConfig(), interval_s=10.0)
    env.process(autoscaler.run())
    env.run(until=25.0)
    assert executor.server_calls == [("out", 1), ("out", 1)]
    with pytest.raises(ValueError):
        Autoscaler(env=env, monitor=Monitor(), policy=None, executor=executor,
                   config=AntDTConfig(), interval_s=10.0)


# ---------------------------------------------------------------------------
# Headline bugfix: kill-restart racing a scale-in drain
# ---------------------------------------------------------------------------


def _standalone_server(draining, coalesce=True, drain_handler=None):
    """One server on a fake job holding what a server reads of its job:
    no standbys, and ``draining`` workers' pushes are never requeued."""
    env = Environment(coalesce=coalesce)
    node_spec = NodeSpec(name="server-0", role=NodeRole.SERVER,
                         device=CPU_SERVER_4C)
    cluster = Cluster("c", [node_spec])
    job = SimpleNamespace(
        env=env, config=PSJobConfig(server_recovery_time_s=1.0),
        scheduler=ClusterScheduler(
            env, cluster, pending_model=PendingTimeModel(idle_pending_time=5.0),
            node_init_time=5.0),
        metrics=MetricsRecorder(), server_state=ServerStateArrays(),
        server_delay_fraction=lambda: 1.0,
        worker_requeue_ok=lambda worker: worker not in draining,
        server_departed=drain_handler,
        server_outage=lambda server, undelivered: False,
        server_recovered=lambda server: None)
    return env, ParameterServer(job, cluster.get("server-0"))


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
    assert len(server.job.metrics.series("server_bpt", tag="server-0")) == 1
    assert server.discard_requests_from("worker-gone") == 0


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
    assert len(server.job.metrics.series("server_bpt", tag="server-0")) == 1


def _push(env, worker):
    return PushRequest(worker=worker, nbytes=1e9, done=env.event())


@pytest.mark.parametrize("fed", [False, True])
def test_kill_of_a_parked_server_loses_no_request(fed):
    """Backlog hand-off 1: the kill lands while the process is parked on its
    getter.  Fed but not yet resumed, the getter's request goes back to the
    front of the backlog; still pending, the getter is withdrawn and a later
    request queues instead of vanishing into it.  Either way both requests
    are handled once each, in FIFO order, after the relaunch."""
    env, server = _standalone_server(draining=set())
    server.start()
    env.run(until=0.5)  # parked on an empty backlog
    first, second = _push(env, "worker-a"), _push(env, "worker-b")
    if fed:
        server.enqueue(first)  # succeeds the getter at t=0.5 ...
        assert server.request_kill_restart()  # ... the urgent kill runs first
        server.enqueue(second)
    else:
        assert server.request_kill_restart()
        env.run(until=1.0)
        server.enqueue(first)
        server.enqueue(second)
    env.run(until=2.0)  # the relaunch is under way
    assert server.pending_request_count() == 2
    assert not first.done.triggered and not second.done.triggered
    env.run()
    series = server.job.metrics.series("server_bpt", tag="server-0")
    assert series.times() == [first.done.value, second.done.value]
    assert first.done.value < second.done.value


def test_request_arriving_during_an_open_window_waits_for_its_wake_up():
    """Backlog hand-off 2: a parked server whose eagerly committed window is
    still in flight is logically busy, so a request arriving meanwhile stays
    in the backlog until a wake-up at the window's last acknowledgement
    commits it — its handling starts then, not at its arrival."""
    env, server = _standalone_server(draining=set())
    server.start()
    env.run(until=0.5)
    first_done = server.submit("worker-a", 1e9)  # opens an eager window
    first_ack = first_done.value  # committed closed-form, delivered later
    env.run(until=1.0)
    second = _push(env, "worker-b")
    server.enqueue(second)
    env.run(until=first_ack - 0.01)
    assert server.pending_request_count() == 1
    assert not second.done.triggered
    env.run()
    series = server.job.metrics.series("server_bpt", tag="server-0")
    assert series.times() == [first_ack, second.done.value]
    assert second.done.value == first_ack + series.values()[1]


@pytest.mark.parametrize("coalesce", [True, False])
def test_parked_server_serves_its_backlog_back_to_back_in_arrival_order(coalesce):
    """A request reaching a parked server starts its handling at that very
    instant, and the requests queued behind it follow back to back in FIFO
    order — coalesced windows and per-request stepping agree exactly."""
    env, server = _standalone_server(draining=set(), coalesce=coalesce)
    server.start()
    env.run(until=0.5)
    requests = [_push(env, worker)
                for worker in ("worker-a", "worker-b", "worker-c")]
    for request in requests:
        server.enqueue(request)
    env.run()
    series = server.job.metrics.series("server_bpt", tag="server-0")
    acks = [request.done.value for request in requests]
    assert series.times() == acks
    handlings = series.values()
    assert acks[0] == 0.5 + handlings[0]
    for previous, ack, handling in zip(acks, acks[1:], handlings[1:]):
        assert ack == previous + handling


@pytest.mark.parametrize("replan", [False, True])
@pytest.mark.parametrize("coalesce", [True, False])
def test_relaunched_server_commits_its_backlog_as_one_window(coalesce, replan):
    """Three requests queue while a killed server relaunches; the relaunched
    process commits them as one window and parks again, so a request
    submitted mid-window joins that window behind them.  A cohort change
    mid-window (``replan``) sends the tail behind the in-flight request back
    through the backlog.  Acknowledgements, the ``server_bpt`` series and
    the logical event count are those of per-request stepping."""
    env, server = _standalone_server(draining=set(), coalesce=coalesce)
    server.start()
    env.run(until=0.5)
    assert server.request_kill_restart()
    env.run(until=1.0)
    queued = [_push(env, worker)
              for worker in ("worker-a", "worker-b", "worker-c")]
    for request in queued:
        server.enqueue(request)
    env.run(until=12.0)  # relaunched at 11.5: the first handling is under way
    if replan:
        server.on_cohort_change()
        assert server.pending_request_count() == 2
    late = server.submit("worker-d", 1e9)
    env.run()
    acks = [request.done.value for request in queued] + [late.value]
    assert acks == pytest.approx([12.51, 13.52, 14.53, 15.54])
    series = server.job.metrics.series("server_bpt", tag="server-0")
    assert series.times() == acks
    assert series.values() == pytest.approx([1.01] * 4)
    for previous, ack, handling in zip(acks, acks[1:], series.values()[1:]):
        assert ack == previous + handling
    assert env.processed_count + env.coalesced_count == 12


def test_kill_rolls_back_a_window_whose_records_outlived_a_prune():
    """A window's commit records survive every prune while its points are
    unacknowledged.  1,500 spaced pushes are acknowledged one by one (their
    records become prunable), then 1,500 land at one instant and form one
    long window; the records pass the prune threshold mid-burst, and a kill
    half-way through the window rolls it back.  Acknowledgements and the
    ``server_bpt`` series are those of per-request stepping."""
    outcomes = []
    for coalesce in (True, False):
        env, server = _standalone_server(draining=set(), coalesce=coalesce)
        server.start()
        acks = []

        def client():
            for index in range(3000):
                done = server.submit("worker-a", 1e6)
                done.callbacks.append(lambda event: acks.append(env.now))
                if index < 1500:
                    yield env.timeout(0.01)
            yield env.timeout(0.5)
            assert server.request_kill_restart()

        env.process(client())
        env.run()
        series = server.job.metrics.series("server_bpt", tag="server-0")
        assert len(acks) == len(series) == 3000
        outcomes.append((acks, series.times(), series.values()))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("coalesce", [True, False])
def test_contention_swap_recommits_the_tail_under_the_new_model(coalesce):
    """A persistent straggler appears mid-window: the in-flight request keeps
    its handling, the two behind it go back through the backlog and are
    committed again under the new (deterministic) model.  One wake-up at the
    in-flight acknowledgement commits them in place, joining the window, and
    the window closes by its chain tail without a heap pop of its own."""
    env, server = _standalone_server(draining=set(), coalesce=coalesce)
    server.start()
    env.run(until=0.5)
    dones = [server.submit(worker, 1e9)
             for worker in ("worker-a", "worker-b", "worker-c")]
    env.run(until=0.6)
    server.node.set_contention(ConstantContention(delay_seconds=0.5))
    env.run()
    acks = [done.value for done in dones]
    assert acks == pytest.approx([1.51, 3.02, 4.53])
    series = server.job.metrics.series("server_bpt", tag="server-0")
    assert series.times() == acks
    assert series.values() == pytest.approx([1.01, 1.51, 1.51])
    assert env.processed_count + env.coalesced_count == 8
    assert env.processed_count == (5 if coalesce else 8)


def test_swap_to_a_random_model_steps_the_held_backlog():
    """A non-deterministic model arrives mid-window: the wake-up at the
    in-flight acknowledgement hands the held backlog to the parked process,
    which steps it request by request.  Acknowledgements, ``server_bpt`` and
    the logical count are the uncoalesced server's."""
    outcomes = []
    for coalesce in (True, False):
        env, server = _standalone_server(draining=set(), coalesce=coalesce)
        server.start()
        env.run(until=0.5)
        dones = [server.submit(worker, 1e9)
                 for worker in ("worker-a", "worker-b", "worker-c")]
        env.run(until=0.6)
        server.node.set_contention(RandomContention(probability=1.0))
        dones.append(server.submit("worker-d", 1e9))
        env.run()
        series = server.job.metrics.series("server_bpt", tag="server-0")
        acks = [done.value for done in dones]
        assert series.times() == acks
        outcomes.append((acks, series.values(),
                         env.processed_count + env.coalesced_count))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][0] == pytest.approx(1.51)


@pytest.mark.parametrize("coalesce", [True, False])
def test_parked_servers_window_schedules_no_event_besides_its_acks(coalesce):
    """Three pushes reach a parked server: the coalesced window they form
    puts exactly their three acknowledgements on the heap — it opens and
    closes by the server's chain tail, with no wake-up — and still counts
    the logical events of per-request stepping."""
    env, server = _standalone_server(draining=set(), coalesce=coalesce)
    server.start()
    env.run(until=0.5)
    scheduled, processed = env.scheduled_count, env.processed_count
    dones = [server.submit(worker, 1e9)
             for worker in ("worker-a", "worker-b", "worker-c")]
    env.run()
    assert [done.value for done in dones] == pytest.approx([1.51, 2.52, 3.53])
    if coalesce:
        assert env.scheduled_count - scheduled == 3
    assert env.processed_count - processed == (3 if coalesce else 7)
    assert env.processed_count + env.coalesced_count == 8


@pytest.mark.parametrize("coalesce", [True, False])
def test_push_landing_exactly_on_the_last_ack_joins_the_window(coalesce):
    """A push that arrives at the very instant of the window's last
    acknowledgement, ordered before it (the uncoalesced server is still
    busy), joins the window: it starts at that acknowledgement and opens no
    window of its own, so the logical count is per-request stepping's in
    both modes."""
    env, server = _standalone_server(draining=set(), coalesce=coalesce)
    server.start()
    env.run(until=0.5)
    handling = (server.node.device.base_overhead
                + 1e9 * server.config.server_per_byte_cost_s)
    late = []

    def push_on_the_ack():
        yield env.timeout(handling)
        late.append(server.submit("worker-b", 1e9))

    env.process(push_on_the_ack())
    env.run(until=0.5)  # the pusher's timeout is now ordered first
    first = server.submit("worker-a", 1e9)
    env.run()
    assert late[0].value == first.value + handling
    series = server.job.metrics.series("server_bpt", tag="server-0")
    assert series.times() == [first.value, late[0].value]
    assert env.processed_count + env.coalesced_count == 9
    assert env.processed_count == (6 if coalesce else 9)


@pytest.mark.parametrize("coalesce", [True, False])
def test_take_backlog_hands_over_the_queue_oldest_first(coalesce):
    """``take_backlog`` empties the queue in place: the requests it returns
    are never handled here, and the run loop keeps serving later arrivals."""
    env, server = _standalone_server(draining=set(), coalesce=coalesce)
    server.start()
    env.run(until=0.5)
    server.submit("worker-a", 1e9)  # handled from t=0.5 on
    queued = [_push(env, "worker-b"), _push(env, "worker-c")]
    for request in queued:
        server.enqueue(request)
    assert server.pending_request_count() == 2
    assert server.take_backlog() == queued
    assert server.pending_request_count() == 0
    env.run()
    series = server.job.metrics.series("server_bpt", tag="server-0")
    assert len(series) == 1
    assert not any(request.done.triggered for request in queued)
    late = [_push(env, "worker-d"), _push(env, "worker-e")]
    for request in late:
        server.enqueue(request)
    env.run()
    assert series.times() == [series.times()[0]] + [
        request.done.value for request in late]


def test_scale_in_of_a_fed_server_drains_every_request_in_order():
    """A scale-in that lands after the parked getter was fed, but before the
    process resumed, hands the fed request and the backlog behind it to the
    drain, oldest first; none of them is handled by the retiring server."""
    handed = []

    def drain(server, requests):
        handed.extend(requests)
        yield server.env.timeout(0.0)

    env, server = _standalone_server(draining=set(), drain_handler=drain)
    server.start()
    env.run(until=0.5)
    first, second = _push(env, "worker-a"), _push(env, "worker-b")
    server.enqueue(first)  # succeeds the getter at t=0.5 ...
    assert server.request_scale_in()  # ... the urgent interrupt runs first
    server.enqueue(second)
    env.run()
    assert handed == [first, second]
    assert not server.process.is_alive
    assert server.pending_request_count() == 0
    assert len(server.job.metrics.series("server_bpt", tag="server-0")) == 0


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
    job.configure_elastic(min_servers=2)
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


def _run_to_end(job):
    deadline = job.env.timeout(job.config.max_duration_s)
    job.env.run(until=job.env.any_of([job._completion_event, deadline]))
    assert job.completed


def test_worker_scale_out_cap_counts_a_relaunching_worker():
    """A relaunching worker returns: a join granted while it is down would
    leave 7 workers under a cap of 6 once it is back."""
    job, _ = build_scenario_job(_server_spec())
    job.configure_elastic(max_workers=6)
    env = job.env
    job.start()
    env.run(until=20.0)
    assert job.request_kill_restart("worker-1")
    env.run(until=20.001)
    assert job.cluster.get("worker-1").status is NodeStatus.RESTARTING
    assert job.request_scale_out(1) == []
    _run_to_end(job)
    assert not job.membership
    assert job.restart_counts()["worker-1"] == 1


def test_headroom_counts_a_relaunching_worker():
    """The autoscaler plans against the job's own cap: while worker-1
    relaunches, a 6-worker fleet under ``max_workers=6`` has no headroom,
    so a policy that asks for every join the headroom allows asks for none
    and no decision is denied."""
    job, _ = build_scenario_job(_server_spec())
    job.configure_elastic(max_workers=6)
    recorder = TraceRecorder()
    autoscaler = Autoscaler(
        env=job.env, monitor=job.monitor,
        policy=UtilizationThresholdPolicy(scale_out_horizon_s=1.0,
                                          scale_in_horizon_s=0.5),
        executor=job, config=job.antdt_config, interval_s=5.0,
        recorder=recorder)
    job.attach_autoscaler(autoscaler)
    env = job.env
    job.start()
    env.run(until=20.0)
    assert job.request_kill_restart("worker-1")
    env.run(until=20.001)
    context = autoscaler.build_context()
    assert (len(context.active_workers), context.committed_workers) == (5, 6)
    assert context.headroom == 0
    _run_to_end(job)
    assert [decision.verdict for decision in recorder.decisions
            if decision.verdict == "denied"] == []
    assert not job.membership


@pytest.mark.parametrize("replicas", [0, 1])
def test_server_scale_out_cap_counts_a_relaunching_server(replicas):
    """A killed server returns whether or not its standbys took over
    meanwhile (with replicas it sits out the push rotation until then), so
    a join granted while it is down would leave 4 servers under a cap of 3."""
    job, _ = build_scenario_job(_server_spec())
    job.configure_server_replication(replicas=replicas)
    job.configure_elastic(max_servers=3)
    env = job.env
    job.start()
    env.run(until=20.0)
    assert job.request_kill_restart("server-1")
    env.run(until=20.001)
    in_rotation = "server-1" in [server.name for server in job.push_targets()]
    assert in_rotation is (replicas == 0)
    assert job.request_server_scale_out(1) == []
    _run_to_end(job)
    assert not job.server_membership
    assert [server.name for server in job.servers] == [
        "server-0", "server-1", "server-2"]


def test_server_scale_out_cap_counts_a_joiner_during_its_handoff():
    """A joining server stays pending until it joins: placed at t=25,
    server-3 receives its shards until t=25.5, and a join granted meanwhile
    would leave 5 servers under a cap of 4."""
    job, _ = build_scenario_job(_server_spec())
    job.configure_elastic(max_servers=4)
    env = job.env
    job.start()
    env.run(until=10.0)
    assert job.request_server_scale_out(1) == ["server-3"]
    env.run(until=25.1)
    assert job.cluster.get("server-3").status is NodeStatus.RUNNING
    assert "server-3" not in [server.name for server in job.servers]
    assert job.committed_server_count() == 4
    assert job.request_server_scale_out(1) == []
    _run_to_end(job)
    assert [server.name for server in job.servers] == [
        "server-0", "server-1", "server-2", "server-3"]


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
    job.request_server_scale_in(newest(job.active_server_names(), 1),
                                reason="cycle scale-in")
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


def _rerouting_job(replicas, staleness_catchup_s=0.0):
    """A contended-server job on a 4-shard map, recording every re-route.

    With 4 shards, server-2 (the contended one, backlogged at t=30) leads
    shards whose standbys are all server-1, so its heirs are a strict subset
    of the survivors.  Returns the job and the ``(server, worker)`` list
    every ``enqueue`` — the re-route entry point — appends to.
    """
    job, _ = build_scenario_job(_server_spec(
        topology=TopologySpec(dedicated=False), stragglers=server_scenario(0.8),
        iterations=40), track_coverage=True)
    job.shard_map = ServerShardMap(members=job.shard_map.members, num_shards=4)
    job.configure_server_replication(replicas=replicas,
                                     staleness_catchup_s=staleness_catchup_s)
    received = []
    for server in job.servers:
        def enqueue(request, server=server, forward=server.enqueue):
            received.append((server.name, request.worker))
            forward(request)
        server.enqueue = enqueue
    job.start()
    job.env.run(until=30.0)
    assert job.server_queue_depths()["server-2"] >= 2
    return job, received


@pytest.mark.parametrize("replicas", [0, 1])
def test_drained_servers_requests_go_to_its_heirs_else_to_every_survivor(replicas):
    job, received = _rerouting_job(replicas)
    heirs = {chain[1] for chain in map(job.shard_map.chain_of, range(4))
             if len(chain) > 1 and chain[0] == "server-2"}
    assert job.request_server_scale_in(["server-2"]) == ["server-2"]
    _run_to_end(job)
    survivors = [server.name for server in job.servers]
    assert survivors == ["server-0", "server-1"]
    receivers = [server for server, _ in received]
    assert len(receivers) >= 2
    if replicas:
        assert heirs == {"server-1"}
        assert set(receivers) == heirs
    else:
        assert receivers == [survivors[index % 2] for index in range(len(receivers))]
    summary = verify_exactly_once(job.allocator)
    assert summary["missed"] == 0 and summary["duplicated"] == 0


def test_promoted_requests_fall_back_to_running_push_targets():
    """Every heir of a killed primary drains before the promotion cost
    elapses: the primary's requests go to the running push targets."""
    job, received = _rerouting_job(replicas=1, staleness_catchup_s=2.0)
    assert job.request_kill_restart("server-2")
    job.env.run(until=30.001)
    assert job.reshard_log[-1].kind == "promotion"
    assert [server.name for server in job.push_targets()] == ["server-0", "server-1"]
    assert job.request_server_scale_in(["server-1"]) == ["server-1"]
    _run_to_end(job)
    assert received and {server for server, _ in received} == {"server-0"}
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
