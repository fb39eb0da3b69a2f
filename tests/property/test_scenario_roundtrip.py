"""Property-based tests: ScenarioSpec serialization round-trips losslessly.

Hypothesis generates random (but valid) scenario specs — nested topologies,
straggler patterns, failure traces, scale overrides — and checks that
``spec -> to_dict -> from_dict`` and ``spec -> JSON -> spec`` are the
identity, that the dict form is genuinely JSON-safe, and that resolution to
an :class:`ExperimentScale` is a pure function of the spec.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.baselines.registry import PS_METHODS
from repro.elastic.spec import (
    NO_ELASTIC,
    NO_SERVER_ELASTIC,
    ElasticSpec,
    ScaleEvent,
    ServerElasticSpec,
)
from repro.experiments.stragglers import StragglerScenario
from repro.experiments.workloads import SCALES
from repro.scenarios import (
    FailureEvent,
    FailureTraceSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.serving.spec import ARRIVAL_SHAPES, NO_SERVING, ServingSpec, TenantSpec
from repro.sim.failures import ErrorCode

_NAMES = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=24)
_TIMES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
_FRACTIONS = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def topology_specs(draw):
    slow_fraction = draw(_FRACTIONS)
    return TopologySpec(
        num_workers=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=256))),
        num_servers=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=64))),
        dedicated=draw(st.booleans()),
        cluster_busy=draw(st.booleans()),
        slow_worker_fraction=slow_fraction,
        slow_factor=draw(st.floats(min_value=1.0 + 1e-9, max_value=16.0, allow_nan=False))
        if slow_fraction > 0.0 else 1.0,
    )


@st.composite
def straggler_scenarios(draw):
    return StragglerScenario(
        name=draw(_NAMES),
        side=draw(st.sampled_from(["none", "worker", "server", "trace"])),
        intensity=draw(_FRACTIONS),
        sleep_duration_s=draw(st.floats(min_value=0.0, max_value=60.0, allow_nan=False)),
        persistent_delay_s=draw(st.floats(min_value=0.0, max_value=60.0, allow_nan=False)),
        transient_fraction=draw(_FRACTIONS),
        include_persistent_worker=draw(st.booleans()),
    )


@st.composite
def failure_traces(draw):
    events = draw(st.lists(
        st.builds(
            FailureEvent,
            time_s=_TIMES,
            node=_NAMES,
            # FailureEvent rejects the two codes that stop the job.
            code=st.sampled_from([
                code.value for code in ErrorCode
                if code not in (ErrorCode.CONFIGURATION_ERROR,
                                ErrorCode.PROGRAMMING_ERROR)]),
        ),
        max_size=6,
    ))
    return FailureTraceSpec(events=tuple(events))


@st.composite
def scale_events(draw):
    action = draw(st.sampled_from(["out", "in"]))
    nodes = ()
    if action == "in" and draw(st.booleans()):
        nodes = tuple(draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True)))
    return ScaleEvent(
        time_s=draw(_TIMES),
        action=action,
        count=draw(st.integers(min_value=1, max_value=8)),
        nodes=nodes,
    )


@st.composite
def server_elastic_specs(draw):
    policy = draw(st.sampled_from(
        [None, "server-queue-depth", "contended-server"]))
    params = ()
    if policy == "contended-server" and draw(st.booleans()):
        params = (("replace", draw(st.booleans())),)
    elif policy == "server-queue-depth" and draw(st.booleans()):
        params = (("scale_out_depth", draw(st.floats(
            min_value=1.0, max_value=64.0, allow_nan=False))),)
    min_servers = draw(st.integers(min_value=1, max_value=4))
    hot_shards = tuple(
        (shard, draw(st.floats(min_value=0.5, max_value=16.0,
                               allow_nan=False, exclude_min=True)))
        for shard in draw(st.lists(st.integers(min_value=0, max_value=63),
                                   max_size=4, unique=True)))
    return ServerElasticSpec(
        events=tuple(draw(st.lists(scale_events(), max_size=3))),
        policy=policy,
        policy_params=params,
        min_servers=min_servers,
        max_servers=draw(st.one_of(
            st.none(), st.integers(min_value=min_servers, max_value=64))),
        replicas=draw(st.integers(min_value=0, max_value=3)),
        hot_shards=hot_shards,
        staleness_catchup_s=draw(st.floats(
            min_value=0.0, max_value=60.0, allow_nan=False)),
    )


@st.composite
def elastic_specs(draw):
    policy = draw(st.sampled_from(
        [None, "utilization", "straggler-pressure", "scheduled-capacity"]))
    params = ()
    if policy == "scheduled-capacity":
        steps = draw(st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                      st.integers(min_value=1, max_value=64)),
            min_size=1, max_size=4, unique_by=lambda step: step[0]))
        schedule = [[time_s, target] for time_s, target in sorted(steps)]
        params = (("schedule", schedule),)
    elif policy == "straggler-pressure" and draw(st.booleans()):
        params = (("replace", draw(st.booleans())),)
    min_workers = draw(st.integers(min_value=1, max_value=8))
    return ElasticSpec(
        events=tuple(draw(st.lists(scale_events(), max_size=4))),
        policy=policy,
        policy_params=params,
        interval_s=draw(st.floats(min_value=1.0, max_value=600.0, allow_nan=False)),
        cooldown_s=draw(st.floats(min_value=0.0, max_value=600.0, allow_nan=False)),
        min_workers=min_workers,
        max_workers=draw(st.one_of(
            st.none(), st.integers(min_value=min_workers, max_value=256))),
        servers=draw(st.one_of(st.just(NO_SERVER_ELASTIC),
                               server_elastic_specs())),
    )


@st.composite
def tenant_specs(draw, name):
    throttled = draw(st.booleans())
    return TenantSpec(
        name=name,
        rate_rps=draw(st.floats(min_value=0.1, max_value=500.0, allow_nan=False)),
        shape=draw(st.sampled_from(ARRIVAL_SHAPES)),
        rate_limit_rps=draw(st.floats(
            min_value=0.1, max_value=500.0, allow_nan=False))
        if throttled else None,
        burst_s=draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False)),
    )


@st.composite
def serving_specs(draw):
    names = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    return ServingSpec(
        tenants=tuple(draw(tenant_specs(name)) for name in names),
        start_s=draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
        duration_s=draw(st.floats(min_value=1.0, max_value=600.0, allow_nan=False)),
        read_fraction=draw(_FRACTIONS),
        request_bytes=draw(st.floats(min_value=1.0, max_value=1e6, allow_nan=False)),
        zipf_s=draw(st.floats(min_value=0.1, max_value=3.0, allow_nan=False)),
        num_keys=draw(st.integers(min_value=1, max_value=1 << 20)),
        queue_capacity=draw(st.integers(min_value=1, max_value=256)),
        window_s=draw(st.floats(min_value=1.0, max_value=120.0, allow_nan=False)),
    )


@st.composite
def scenario_specs(draw):
    scale = draw(st.sampled_from(sorted(SCALES)))
    topology = draw(topology_specs())
    method = draw(st.sampled_from(sorted(PS_METHODS)))
    # Elastic membership requires a DDS-based method (spec validation).
    elastic = NO_ELASTIC
    if PS_METHODS[method].allocator == "dds":
        elastic = draw(st.one_of(st.just(NO_ELASTIC), elastic_specs()))
    return ScenarioSpec(
        name=draw(_NAMES),
        method=method,
        elastic=elastic,
        scale=scale,
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        description=draw(st.text(max_size=40)),
        tags=tuple(draw(st.lists(_NAMES, max_size=4))),
        topology=topology,
        serving=draw(st.one_of(st.just(NO_SERVING), serving_specs())),
        stragglers=draw(straggler_scenarios()),
        failures=draw(failure_traces()),
        iterations=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=500))),
        epochs=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4))),
        scale_overrides=tuple(draw(st.lists(
            st.tuples(
                st.sampled_from(["control_interval_s", "transient_window_s",
                                 "persistent_window_s", "straggler_period_s",
                                 "idle_pending_time_s"]),
                st.floats(min_value=0.5, max_value=600.0, allow_nan=False),
            ),
            max_size=3,
            unique_by=lambda pair: pair[0],
        ))),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=scenario_specs())
def test_dict_roundtrip_is_lossless(spec):
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=scenario_specs())
def test_json_roundtrip_is_lossless(spec):
    rebuilt = ScenarioSpec.from_json(spec.to_json())
    assert rebuilt == spec
    # And the dict form really is JSON-safe (no tuples, enums, numpy types).
    assert json.loads(spec.to_json()) == json.loads(rebuilt.to_json())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=scenario_specs())
def test_roundtrip_preserves_resolved_scale(spec):
    rebuilt = ScenarioSpec.from_dict(spec.to_dict())
    assert rebuilt.resolve_scale() == spec.resolve_scale()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=scenario_specs())
def test_custom_scale_pinning_roundtrips(spec):
    """for_scale(custom object) encodes the scale losslessly into overrides."""
    resolved = spec.resolve_scale()
    pinned = ScenarioSpec.for_scale(resolved, name="pinned", method=spec.method)
    rebuilt = ScenarioSpec.from_json(pinned.to_json())
    assert rebuilt == pinned
    assert rebuilt.resolve_scale() == resolved


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenario=straggler_scenarios())
def test_straggler_scenario_roundtrips(scenario):
    assert StragglerScenario.from_dict(scenario.to_dict()) == scenario


@settings(max_examples=60, deadline=None, derandomize=True)
@given(elastic=elastic_specs())
def test_elastic_spec_roundtrips(elastic):
    assert ElasticSpec.from_dict(elastic.to_dict()) == elastic
    # And the dict form is genuinely JSON-safe.
    rebuilt = ElasticSpec.from_dict(json.loads(json.dumps(elastic.to_dict())))
    assert rebuilt == elastic


@settings(max_examples=60, deadline=None, derandomize=True)
@given(servers=server_elastic_specs())
def test_server_elastic_spec_roundtrips(servers):
    assert ServerElasticSpec.from_dict(servers.to_dict()) == servers
    rebuilt = ServerElasticSpec.from_dict(
        json.loads(json.dumps(servers.to_dict())))
    assert rebuilt == servers
