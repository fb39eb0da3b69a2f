"""Unit tests for warm-standby shard replication and hot-key shard weights.

Covers the replica-chain structure of the rendezvous ServerShardMap (chain
depth, replica-0 compatibility with the single-owner map, minimal disruption
on join/leave), the kill-path ``promote_standbys`` rotation, the weighted
migration cost model, the malformed-chain rejections in
``verify_shard_coverage`` (plus the zero-survivor regression), the
heat-weighted autoscaler policy inputs, and the PS job's two promotion paths:
a killed primary whose standbys take over while it relaunches, and a graceful
drain handing its queue to the standby owners.
"""

import pytest

from repro.core.actions import ScaleInServers, ScaleOutServers
from repro.elastic import (
    ElasticSpec,
    MigrationCostModel,
    ServerElasticSpec,
    ServerQueueDepthPolicy,
    ContendedServerPolicy,
    ServerShardMap,
    ShardConservationError,
    verify_exactly_once,
    verify_shard_coverage,
)
from repro.orchestrator import simulate_spec
from repro.orchestrator.grid import expand
from repro.scenarios import (
    FailureEvent,
    FailureTraceSpec,
    ScenarioSpec,
    build_scenario_job,
)

from test_elastic_servers import _server_context, _server_spec


MEMBERS = ["server-0", "server-1", "server-2"]


# ---------------------------------------------------------------------------
# Replica chains
# ---------------------------------------------------------------------------


def test_replica_chains_have_primary_plus_standbys():
    shard_map = ServerShardMap(members=MEMBERS, num_shards=64, replicas=1)
    for shard in range(64):
        chain = shard_map.chain_of(shard)
        assert len(chain) == 2  # primary + one warm standby
        assert chain[0] == shard_map.owner_of(shard)
        assert shard_map.standbys_of(shard) == chain[1:]
        assert len(set(chain)) == len(chain)
    verify_shard_coverage(shard_map, MEMBERS)
    # Chains are capped by the membership, not padded with ghosts.
    small = ServerShardMap(members=["only"], num_shards=8, replicas=2)
    assert all(small.chain_of(shard) == ["only"] for shard in range(8))


def test_replica_zero_matches_the_single_owner_map():
    plain = ServerShardMap(members=MEMBERS, num_shards=64)
    replicated = ServerShardMap(members=MEMBERS, num_shards=64, replicas=2)
    for shard in range(64):
        assert replicated.owner_of(shard) == plain.owner_of(shard)
    assert replicated.assignment() == plain.assignment()
    # replicas=0 reproduces the pre-replication digest byte for byte.
    assert ServerShardMap(members=MEMBERS, num_shards=64,
                          replicas=0).digest() == plain.digest()


def test_replicated_join_and_leave_touch_only_the_entered_chains():
    shard_map = ServerShardMap(members=MEMBERS, num_shards=64, replicas=1)
    before = {shard: shard_map.chain_of(shard) for shard in range(64)}
    received = shard_map.add_member("server-3")
    assert received, "the newcomer must enter some chains"
    for shard in range(64):
        chain = shard_map.chain_of(shard)
        if shard in received:
            assert "server-3" in chain
        else:
            assert chain == before[shard]
    before = {shard: shard_map.chain_of(shard) for shard in range(64)}
    moved = shard_map.remove_member("server-3")
    assert set(moved) == {shard for shard in received
                          if before[shard][0] == "server-3"}
    for shard in range(64):
        chain = shard_map.chain_of(shard)
        assert "server-3" not in chain
        if "server-3" not in before[shard]:
            assert chain == before[shard]
        else:
            # Closed ranks: the survivors kept their relative order.
            survivors = [member for member in before[shard]
                         if member != "server-3"]
            assert chain[:len(survivors)] == survivors
    verify_shard_coverage(shard_map, MEMBERS)


def test_promote_standbys_rotates_the_down_primary_to_the_tail():
    shard_map = ServerShardMap(members=MEMBERS, num_shards=64, replicas=1)
    led = shard_map.assignment()["server-1"]
    standby_before = {shard: shard_map.standbys_of(shard)[0] for shard in led}
    promoted = shard_map.promote_standbys("server-1")
    assert promoted == led
    for shard in led:
        assert shard_map.owner_of(shard) == standby_before[shard]
        assert shard_map.standbys_of(shard) == ["server-1"]
    # The down primary may serve nothing, yet the map stays fully covered —
    # standbys need not be active, serving owners must be.
    verify_shard_coverage(shard_map, ["server-0", "server-2"])
    with pytest.raises(ShardConservationError, match="inactive"):
        verify_shard_coverage(ServerShardMap(members=MEMBERS, replicas=1),
                              ["server-0", "server-2"])
    # Without standbys there is nobody to promote.
    solo = ServerShardMap(members=["s0"], num_shards=8, replicas=1)
    assert solo.promote_standbys("s0") == []
    with pytest.raises(ValueError):
        shard_map.promote_standbys("nope")


def test_remove_member_to_zero_survivors_with_replicas():
    """Regression: emptying a replicated map must not loop forever refilling
    chains from an empty member pool, and the audit reports the orphans."""
    shard_map = ServerShardMap(members=["s0", "s1"], num_shards=8, replicas=2)
    shard_map.remove_member("s0")
    assert all(shard_map.chain_of(shard) == ["s1"] for shard in range(8))
    moved = shard_map.remove_member("s1")
    assert moved == list(range(8))
    assert all(shard_map.chain_of(shard) == [] for shard in range(8))
    with pytest.raises(ShardConservationError, match="no owning server"):
        verify_shard_coverage(shard_map, [])


def test_verify_shard_coverage_rejects_malformed_chains():
    shard_map = ServerShardMap(members=MEMBERS, num_shards=16, replicas=1)
    # A standby shadowing its own primary counts the same copy twice.
    shard_map._chains[3] = [shard_map._chains[3][0]] * 2
    with pytest.raises(ShardConservationError, match="malformed"):
        verify_shard_coverage(shard_map, MEMBERS)
    # A standby outside the membership is equally malformed.
    shard_map = ServerShardMap(members=MEMBERS, num_shards=16, replicas=1)
    shard_map._chains[5][1] = "never-joined"
    with pytest.raises(ShardConservationError, match="malformed"):
        verify_shard_coverage(shard_map, MEMBERS)


# ---------------------------------------------------------------------------
# Hot-key shard weights
# ---------------------------------------------------------------------------


def test_shard_weights_feed_heat_and_cost_fractions():
    shard_map = ServerShardMap(members=MEMBERS, num_shards=8,
                               shard_weights={0: 9.0})
    assert shard_map.has_weights
    assert shard_map.weight_of(0) == 9.0 and shard_map.weight_of(1) == 1.0
    assert shard_map.total_weight() == 16.0
    assert shard_map.weight_fraction([0]) == pytest.approx(9.0 / 16.0)
    heat = shard_map.member_heat()
    # Heat is relative to the uniform share, so it averages 1.0 exactly.
    assert sum(heat.values()) == pytest.approx(len(MEMBERS))
    assert heat[shard_map.owner_of(0)] == max(heat.values())
    summary = shard_map.weights_summary()
    assert summary == {"hot_shards": 1,
                       "hot_weight_fraction": round(9.0 / 16.0, 9),
                       "max_weight": 9.0}
    assert ServerShardMap(members=MEMBERS).weights_summary() is None
    with pytest.raises(ValueError):
        ServerShardMap(members=MEMBERS, num_shards=8, shard_weights={8: 2.0})
    with pytest.raises(ValueError):
        ServerShardMap(members=MEMBERS, num_shards=8, shard_weights={0: 0.0})


def test_weighted_handoff_charges_moved_weight_not_moved_count():
    model = MigrationCostModel(param_bytes=1e9)
    uniform = model.handoff_time(8, 64)
    # One eighth of the shards carrying half the weight costs like half.
    weighted = model.handoff_time(8, 64, weight_fraction=0.5)
    assert weighted > uniform
    assert weighted == model.handoff_time(32, 64)
    # The fraction is clamped to [0, 1].
    assert model.handoff_time(8, 64, weight_fraction=7.0) \
        == model.handoff_time(64, 64)
    assert model.handoff_time(8, 64, weight_fraction=-1.0) == model.base_cost_s
    # Promotion cost: flat and cheap, zero when nothing promoted.
    assert model.promotion_time(0) == 0.0
    assert model.promotion_time(19) == model.promotion_cost_s
    assert model.promotion_time(1) < model.handoff_time(1, 64)


def test_queue_depth_policy_weights_depths_by_heat():
    policy = ServerQueueDepthPolicy(scale_out_depth=4.0, scale_in_depth=0.25)
    depths = {"server-0": 0, "server-1": 0, "server-2": 4}
    # Unweighted, a depth of 4 misses the strict > 4.0 trigger.
    assert policy.decide(_server_context(server_queue_depths=depths)) == []
    # The same raw depth on a hot server reads as 2x the backlog.
    hot = policy.decide(_server_context(
        server_queue_depths=depths,
        server_shard_weights={"server-0": 0.5, "server-1": 0.5,
                              "server-2": 2.0}))
    assert len(hot) == 1 and isinstance(hot[0], ScaleOutServers)


def test_contended_policy_normalizes_bpt_by_heat():
    policy = ContendedServerPolicy(replace=False)
    bpts = {"server-0": 0.2, "server-1": 0.2, "server-2": 0.9}
    # Unweighted, server-2 reads as contended (0.9 > 2x the 0.43 mean).
    actions = policy.decide(_server_context(server_long_bpts=bpts))
    assert len(actions) == 1 and actions[0].node_names == ("server-2",)
    # Heat explains the slowness away: a server owning 3x the traffic weight
    # is *expected* to be slower, so normalized it is not an outlier.
    assert policy.decide(_server_context(
        server_long_bpts=bpts,
        server_shard_weights={"server-0": 0.5, "server-1": 0.5,
                              "server-2": 3.0})) == []
    # Heat 0 must not divide by zero; it falls back to the raw bpt.
    assert policy.decide(_server_context(
        server_long_bpts=bpts,
        server_shard_weights={"server-0": 0.0, "server-1": 0.5,
                              "server-2": 3.0})) == []


# ---------------------------------------------------------------------------
# PS job: kill-path promotion and drain-to-standby
# ---------------------------------------------------------------------------


def test_kill_promotion_serves_from_standbys_during_recovery():
    spec = _server_spec(name="unit-kill-promotion", iterations=40)
    job, _ = build_scenario_job(spec, track_coverage=True)
    job.configure_server_replication(replicas=1)
    env = job.env
    job.start()
    env.run(until=20.0)
    owned_before = set(job.shard_map.assignment()["server-1"])
    assert job.request_kill_restart("server-1", reason="promotion test")
    # The interrupt (and with it the outage hook) lands on the next engine
    # step; one tick later the standbys have taken over: the dead primary
    # leads no chain, leaves the push rotation, and the map stays fully
    # covered throughout the outage.
    env.run(until=20.001)
    assert "server-1" in job._recovering_servers
    assert all(target.name != "server-1" for target in job.push_targets())
    assert job.shard_map.assignment()["server-1"] == []
    for shard in owned_before:
        assert job.shard_map.standbys_of(shard) == ["server-1"]
    verify_shard_coverage(job.shard_map, job.active_server_names())
    events = [event for event in job.reshard_log if event.kind == "promotion"]
    assert len(events) == 1
    assert events[0].trigger == "server-1"
    assert events[0].promoted_shards == len(owned_before) > 0
    # Cheap: the flat promotion constant, not a byte-moving handoff.
    assert events[0].cost_s == job._migration_model.promotion_cost_s
    deadline = env.timeout(job.config.max_duration_s)
    env.run(until=env.any_of([job._completion_event, deadline]))
    assert job.completed
    # Recovery re-admitted the relaunched pod to the rotation — as a standby;
    # serving ownership stays with the promoted survivors.
    assert "server-1" not in job._recovering_servers
    assert any(target.name == "server-1" for target in job.push_targets())
    assert job.shard_map.assignment()["server-1"] == []
    verify_shard_coverage(job.shard_map, job.active_server_names())
    summary = verify_exactly_once(job.allocator)
    assert summary["missed"] == 0 and summary["duplicated"] == 0


def test_kill_without_replicas_keeps_the_pre_replication_path():
    spec = _server_spec(name="unit-kill-no-replicas", iterations=40)
    job, _ = build_scenario_job(spec)
    env = job.env
    job.start()
    env.run(until=20.0)
    assert job.request_kill_restart("server-1", reason="no replicas")
    assert job._recovering_servers == set()
    assert any(target.name == "server-1" for target in job.push_targets())
    deadline = env.timeout(job.config.max_duration_s)
    env.run(until=env.any_of([job._completion_event, deadline]))
    assert job.completed
    assert not job.reshard_log


def test_graceful_drain_promotes_standbys_and_hands_off_cheaply():
    spec = _server_spec(name="unit-drain-promotion", iterations=40)
    replicated, _ = build_scenario_job(spec, track_coverage=True)
    replicated.configure_server_replication(replicas=1)
    plain, _ = build_scenario_job(_server_spec(name="unit-drain-plain",
                                               iterations=40))
    for job in (replicated, plain):
        job.start()
        job.env.run(until=15.0)
        assert job.request_server_scale_in(["server-2"]) == ["server-2"]
        deadline = job.env.timeout(job.config.max_duration_s)
        job.env.run(until=job.env.any_of([job._completion_event, deadline]))
        assert job.completed
    leave = [event for event in replicated.reshard_log
             if event.kind == "leave"]
    assert len(leave) == 1
    # Every moved shard was warm on a standby: no byte-moving handoff at all.
    assert leave[0].promoted_shards == leave[0].moved_shards > 0
    baseline = [event for event in plain.reshard_log
                if event.kind == "leave"]
    assert leave[0].cost_s < baseline[0].cost_s
    verify_shard_coverage(replicated.shard_map,
                          replicated.active_server_names())
    summary = verify_exactly_once(replicated.allocator)
    assert summary["missed"] == 0 and summary["duplicated"] == 0


def test_scenario_spec_arms_replication_and_grid_axis_expands():
    spec = _server_spec(name="unit-spec-replication", iterations=30,
                        elastic=ElasticSpec(servers=ServerElasticSpec(
                            replicas=1, hot_shards=((0, 4.0),))))
    job, _ = build_scenario_job(spec)
    assert job.shard_map.replicas == 1
    assert job.shard_map.weight_of(0) == 4.0
    assert job.server_shard_weights()  # heat is exposed to the policies
    result = simulate_spec(spec)
    assert result.run.completed
    assert result.run.shard_replicas == 1
    assert result.run.shard_weights["hot_shards"] == 1
    # No churn happened, so the fingerprint keeps its pre-elastic shape —
    # the replication keys ride the resharding section, which only appears
    # when membership or ownership actually changed.
    assert "elastic" not in result.fingerprint
    # The sweep axis threads the knob through derived variants; replicas=0
    # on a static-allocator base stays representable (no dds-drop).
    base = ScenarioSpec(name="base", method="antdt-nd")
    variants = expand(base, server_replicas=(0, 2))
    assert [spec.name for spec in variants] == [
        "base@server_replicas=0", "base@server_replicas=2"]
    assert [spec.elastic.servers.replicas for spec in variants] == [0, 2]
    static = expand(ScenarioSpec(name="static", method="asp"),
                    server_replicas=(0, 2))
    assert [spec.elastic.servers.replicas if spec.elastic else 0
            for spec in static] == [0]


# ---------------------------------------------------------------------------
# Staleness catch-up on promotion
# ---------------------------------------------------------------------------


def _kill_promotion_spec(name, staleness=None):
    servers = ServerElasticSpec(replicas=1)
    if staleness is not None:
        servers = ServerElasticSpec(replicas=1, staleness_catchup_s=staleness)
    return _server_spec(
        name=name, iterations=40,
        elastic=ElasticSpec(servers=servers),
        failures=FailureTraceSpec(events=(
            FailureEvent(time_s=20.0, node="server-1"),)))


def test_staleness_catchup_defaults_to_zero_and_stays_byte_identical():
    # The default (no staleness) and an explicit 0.0 must be the *same run*,
    # byte for byte — the knob's default cannot move any existing trace.
    default = simulate_spec(_kill_promotion_spec("unit-staleness-default"))
    explicit = simulate_spec(_kill_promotion_spec("unit-staleness-default",
                                                  staleness=0.0))
    assert default.run.completed
    assert default.golden_trace() == explicit.golden_trace()
    events = [event for event in default.run.reshard_events
              if event.kind == "promotion"]
    # Default promotion cost is the flat coordination constant alone.
    assert events and events[0].cost_s == pytest.approx(0.05)


def test_staleness_catchup_charges_every_promotion_reshard():
    stalled = simulate_spec(_kill_promotion_spec("unit-staleness-charged",
                                                 staleness=0.6))
    assert stalled.run.completed
    events = [event for event in stalled.run.reshard_events
              if event.kind == "promotion"]
    # Promotion now costs coordination + the configured catch-up stall.
    assert events and events[0].cost_s == pytest.approx(0.05 + 0.6)
    # The charge is pinned behaviour: it lands in the golden-trace bytes.
    baseline = simulate_spec(_kill_promotion_spec("unit-staleness-charged"))
    assert stalled.golden_trace() != baseline.golden_trace()
    reshard = stalled.fingerprint["elastic"]["resharding"]["events"][0]
    assert reshard["cost_s"] == pytest.approx(0.65)


def test_staleness_catchup_spec_round_trips_and_validates():
    spec = ServerElasticSpec(replicas=1, staleness_catchup_s=0.75)
    assert ServerElasticSpec.from_dict(spec.to_dict()) == spec
    assert spec.to_dict()["staleness_catchup_s"] == 0.75
    # A zero catch-up alone does not arm elastic behaviour.
    assert not ServerElasticSpec(staleness_catchup_s=0.0)
    with pytest.raises(ValueError):
        ServerElasticSpec(staleness_catchup_s=-0.1)


def test_job_rejects_negative_staleness_and_defaults_to_zero():
    job, _ = build_scenario_job(_server_spec(name="unit-staleness-knob",
                                             iterations=30))
    assert job._staleness_catchup_s == 0.0
    job.configure_server_replication(replicas=1)
    assert job._staleness_catchup_s == 0.0  # default leaves the knob alone
    job.configure_server_replication(replicas=1, staleness_catchup_s=0.5)
    assert job._staleness_catchup_s == 0.5
    with pytest.raises(ValueError):
        job.configure_server_replication(replicas=1, staleness_catchup_s=-1.0)


# ---------------------------------------------------------------------------
# Shrink-side heat asymmetry (zero-heat active servers)
# ---------------------------------------------------------------------------


def test_zero_heat_server_keeps_its_raw_depth_in_weighted_depths():
    # A freshly recovered server (promoted away, owning no primary weight
    # yet) has heat 0 — its real backlog must read at face value, not be
    # zeroed out of the shrink mean and the scale-out max.
    context = _server_context(
        server_queue_depths={"server-0": 1, "server-1": 1, "server-2": 6},
        server_shard_weights={"server-0": 1.5, "server-1": 1.5,
                              "server-2": 0.0})
    depths = context.weighted_server_depths()
    assert depths["server-2"] == 6.0  # raw, not 0.0
    assert depths["server-0"] == 1.5


def test_queue_depth_policy_sees_zero_heat_backlog_during_churn():
    policy = ServerQueueDepthPolicy(scale_out_depth=4.0, scale_in_depth=0.5)
    serving = {"server-0": 0, "server-1": 0, "server-2": 5}
    heat = {"server-0": 1.5, "server-1": 1.5, "server-2": 0.0}
    # Pre-fix the zero heat wiped the backlog: mean 0 -> bogus scale-in of
    # the very server holding five requests.  Now it triggers a scale-out.
    actions = policy.decide(_server_context(server_queue_depths=serving,
                                            server_shard_weights=heat))
    assert len(actions) == 1 and isinstance(actions[0], ScaleOutServers)
